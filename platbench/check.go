package main

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strings"

	"sdp/internal/sqldb"
)

// tableDigest is a table's row count and an order-independent content hash.
type tableDigest struct {
	rows int
	hash uint64
}

// digestTables reads every table of db through the engine read-only.
func digestTables(e *sqldb.Engine, db string) (map[string]tableDigest, error) {
	out := make(map[string]tableDigest)
	for _, tbl := range e.Tables(db) {
		tx, err := e.BeginReadOnly(db)
		if err != nil {
			return nil, err
		}
		res, err := tx.Exec("SELECT * FROM " + tbl)
		_ = tx.Rollback()
		if err != nil {
			return nil, fmt.Errorf("read %s.%s: %w", db, tbl, err)
		}
		rows := make([]string, len(res.Rows))
		for i, row := range res.Rows {
			var sb strings.Builder
			for _, v := range row {
				sb.WriteString(v.String())
				sb.WriteByte('|')
			}
			rows[i] = sb.String()
		}
		sort.Strings(rows)
		h := fnv.New64a()
		for _, r := range rows {
			h.Write([]byte(r))
			h.Write([]byte{'\n'})
		}
		out[tbl] = tableDigest{rows: len(rows), hash: h.Sum64()}
	}
	return out, nil
}

// checkTPCW verifies, with the load stopped, that every tenant is at full
// degree on live machines, that its replicas match table by table, and that
// its order table grew by exactly the BuyConfirm transactions the platform
// acknowledged.
func (b *bench) checkTPCW() []string {
	var bad []string
	for _, t := range b.tenants {
		reps, err := b.cl.Replicas(t.name)
		if err != nil {
			bad = append(bad, err.Error())
			continue
		}
		if len(reps) != replicas {
			bad = append(bad, fmt.Sprintf("%s: degree %d, want %d", t.name, len(reps), replicas))
			continue
		}
		var ref map[string]tableDigest
		for i, id := range reps {
			m, err := b.cl.Machine(id)
			if err != nil || m.Failed() {
				bad = append(bad, fmt.Sprintf("%s: replica on unusable machine %s", t.name, id))
				continue
			}
			got, err := digestTables(m.Engine(), t.name)
			if err != nil {
				bad = append(bad, err.Error())
				continue
			}
			if i == 0 {
				ref = got
				orders := got["orders"].rows - t.scale.Orders
				if want := int(t.buyConfirms.Load()); orders != want {
					bad = append(bad, fmt.Sprintf("%s: order table grew by %d, %d BuyConfirm commits acknowledged", t.name, orders, want))
				}
				continue
			}
			if len(got) != len(ref) {
				bad = append(bad, fmt.Sprintf("%s: replica %s has %d tables, %s has %d", t.name, id, len(got), reps[0], len(ref)))
			}
			for tbl, d := range ref {
				if got[tbl] != d {
					bad = append(bad, fmt.Sprintf("%s.%s: replica %s (%d rows) differs from %s (%d rows)", t.name, tbl, id, got[tbl].rows, reps[0], d.rows))
				}
			}
		}
	}
	return bad
}
