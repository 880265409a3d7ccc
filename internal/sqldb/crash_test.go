package sqldb

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"strconv"
	"testing"

	"sdp/internal/wal"
)

// newWALEngine builds an engine logging to a fresh in-memory store.
func newWALEngine(t *testing.T) (*Engine, *wal.MemStore) {
	t.Helper()
	s := wal.NewMemStore()
	e := NewEngine(DefaultConfig())
	e.AttachWAL(wal.New(s, wal.Config{}, nil))
	return e, s
}

// recoverEngine simulates the post-crash restart: a fresh engine over the
// same (crashed) store, recovered from its surviving log.
func recoverEngine(t *testing.T, s *wal.MemStore) (*Engine, *RecoveryStats) {
	t.Helper()
	e := NewEngine(DefaultConfig())
	e.AttachWAL(wal.New(s, wal.Config{}, nil))
	stats, err := e.Recover()
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	return e, stats
}

// rowIDs returns the sorted id column of tbl.
func rowIDs(t *testing.T, e *Engine, db, tbl string) []int64 {
	t.Helper()
	res, err := e.Exec(db, "SELECT id FROM "+tbl)
	if err != nil {
		t.Fatalf("select %s: %v", tbl, err)
	}
	out := make([]int64, 0, len(res.Rows))
	for _, r := range res.Rows {
		out = append(out, r[0].Int)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func wantIDs(t *testing.T, e *Engine, db, tbl string, want ...int64) {
	t.Helper()
	got := rowIDs(t, e, db, tbl)
	if len(got) != len(want) {
		t.Fatalf("%s: ids = %v, want %v", tbl, got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: ids = %v, want %v", tbl, got, want)
		}
	}
}

// mustExec runs one autocommit statement.
func crashExec(t *testing.T, e *Engine, db, sql string) {
	t.Helper()
	if _, err := e.Exec(db, sql); err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
}

// seedBank creates the standard crash-test fixture: bank.accounts with rows
// 1 and 2 committed.
func seedBank(t *testing.T, e *Engine) {
	t.Helper()
	if err := e.CreateDatabase("bank"); err != nil {
		t.Fatal(err)
	}
	crashExec(t, e, "bank", "CREATE TABLE accounts (id INT PRIMARY KEY, bal INT)")
	crashExec(t, e, "bank", "INSERT INTO accounts (id, bal) VALUES (1, 100)")
	crashExec(t, e, "bank", "INSERT INTO accounts (id, bal) VALUES (2, 200)")
}

// TestCrashRecovery drives the same committed/uncommitted workload through
// every crash-injection point and proves the durability contract each time:
// every transaction whose Commit returned is present after recovery, every
// unfinished or rolled-back transaction is gone.
func TestCrashRecovery(t *testing.T) {
	type scenario struct {
		name string
		// inject fires the failure after the workload (committed rows 1-3,
		// uncommitted row 90, rolled-back row 91).
		inject func(t *testing.T, s *wal.MemStore)
		// wantTorn is whether recovery must report a truncated tail.
		wantTorn bool
		// wantRows overrides the expected surviving rows (default 1, 2, 3).
		wantRows []int64
	}
	scenarios := []scenario{
		{name: "clean_crash", inject: func(t *testing.T, s *wal.MemStore) { s.Crash(0) }},
		{name: "torn_3_bytes", inject: func(t *testing.T, s *wal.MemStore) { s.Crash(3) }, wantTorn: true},
		{name: "torn_1_byte", inject: func(t *testing.T, s *wal.MemStore) { s.Crash(1) }, wantTorn: true},
		{name: "duplicated_final_frame", inject: func(t *testing.T, s *wal.MemStore) { s.DuplicateLast(); s.Crash(0) }, wantTorn: true},
		// Chopping into the durable tail destroys the final frame — row 3's
		// commit record — so its transaction must roll back on recovery.
		{name: "chop_mid_record", inject: func(t *testing.T, s *wal.MemStore) { s.Crash(0); s.Chop(2) }, wantTorn: true, wantRows: []int64{1, 2}},
	}
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			e, s := newWALEngine(t)
			seedBank(t, e)
			crashExec(t, e, "bank", "INSERT INTO accounts (id, bal) VALUES (3, 300)")

			// Uncommitted at crash time: must roll back.
			open, err := e.Begin("bank")
			if err != nil {
				t.Fatal(err)
			}
			if _, err := open.Exec("INSERT INTO accounts (id, bal) VALUES (90, 0)"); err != nil {
				t.Fatal(err)
			}

			// Explicitly rolled back: must stay rolled back.
			rb, err := e.Begin("bank")
			if err != nil {
				t.Fatal(err)
			}
			if _, err := rb.Exec("INSERT INTO accounts (id, bal) VALUES (91, 0)"); err != nil {
				t.Fatal(err)
			}
			if err := rb.Rollback(); err != nil {
				t.Fatal(err)
			}

			sc.inject(t, s)
			e2, stats := recoverEngine(t, s)
			if stats.TornTail != sc.wantTorn {
				t.Fatalf("TornTail = %v, want %v", stats.TornTail, sc.wantTorn)
			}
			want := sc.wantRows
			if want == nil {
				want = []int64{1, 2, 3}
			}
			wantIDs(t, e2, "bank", "accounts", want...)

			// The recovered engine keeps serving: its log continues past the
			// repaired tail.
			crashExec(t, e2, "bank", "INSERT INTO accounts (id, bal) VALUES (4, 400)")
			e3, _ := recoverEngine(t, s)
			wantIDs(t, e3, "bank", "accounts", append(want, 4)...)
		})
	}
}

// TestCrashUncommittedTornStatements crashes with the tail of an uncommitted
// transaction's statements durable: without a commit record they must not
// replay.
func TestCrashUncommittedTornStatements(t *testing.T) {
	e, s := newWALEngine(t)
	seedBank(t, e)
	open, err := e.Begin("bank")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := open.Exec("INSERT INTO accounts (id, bal) VALUES (90, 0)"); err != nil {
		t.Fatal(err)
	}
	// Force the statement frames durable (as a concurrent committer's group
	// flush would), then crash before the transaction commits.
	if err := e.WAL().Sync(); err != nil {
		t.Fatal(err)
	}
	s.Crash(0)
	e2, _ := recoverEngine(t, s)
	wantIDs(t, e2, "bank", "accounts", 1, 2)
}

// TestCrashDDLDurability covers CREATE/DROP TABLE, CREATE INDEX and database
// namespace changes across a crash.
func TestCrashDDLDurability(t *testing.T) {
	e, s := newWALEngine(t)
	seedBank(t, e)
	crashExec(t, e, "bank", "CREATE TABLE audit (id INT PRIMARY KEY, note TEXT)")
	crashExec(t, e, "bank", "CREATE INDEX idx_note ON audit (note)")
	crashExec(t, e, "bank", "INSERT INTO audit (id, note) VALUES (1, 'x')")
	crashExec(t, e, "bank", "CREATE TABLE doomed (id INT)")
	crashExec(t, e, "bank", "DROP TABLE doomed")
	if err := e.CreateDatabase("scratch"); err != nil {
		t.Fatal(err)
	}
	if err := e.DropDatabase("scratch"); err != nil {
		t.Fatal(err)
	}
	// DDL records are buffered; a later committed write makes the whole
	// prefix durable.
	crashExec(t, e, "bank", "INSERT INTO accounts (id, bal) VALUES (3, 1)")
	s.Crash(0)

	e2, _ := recoverEngine(t, s)
	wantIDs(t, e2, "bank", "audit", 1)
	if e2.HasDatabase("scratch") {
		t.Fatal("dropped database resurrected")
	}
	if _, err := e2.Table("bank", "doomed"); err == nil {
		t.Fatal("dropped table resurrected")
	}
	// The replayed index is live: an indexed lookup works.
	res, err := e2.Exec("bank", "SELECT id FROM audit WHERE note = 'x'")
	if err != nil || len(res.Rows) != 1 {
		t.Fatalf("index lookup after recovery: rows=%v err=%v", res, err)
	}
}

// TestCrashPreparedInDoubt proves a prepared transaction survives the crash
// in doubt and both resolutions behave: commit makes it visible and durable,
// abort erases it — in both cases durably, across a second crash.
func TestCrashPreparedInDoubt(t *testing.T) {
	for _, commit := range []bool{true, false} {
		name := "abort"
		if commit {
			name = "commit"
		}
		t.Run(name, func(t *testing.T) {
			e, s := newWALEngine(t)
			seedBank(t, e)
			tx, err := e.BeginWithID("bank", 77)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := tx.Exec("INSERT INTO accounts (id, bal) VALUES (5, 500)"); err != nil {
				t.Fatal(err)
			}
			if err := tx.Prepare(); err != nil {
				t.Fatal(err)
			}
			s.Crash(0)

			e2, stats := recoverEngine(t, s)
			if stats.InDoubt != 1 {
				t.Fatalf("InDoubt = %d, want 1", stats.InDoubt)
			}
			if got := e2.RecoveredPrepared(); len(got) != 1 || got[0] != 77 {
				t.Fatalf("RecoveredPrepared = %v, want [77]", got)
			}
			if tbls := stats.InDoubtTables["bank"]; len(tbls) != 1 || tbls[0] != "accounts" {
				t.Fatalf("InDoubtTables = %v", stats.InDoubtTables)
			}
			// The in-doubt transaction's writes stay locked until resolution.
			if err := e2.ResolvePrepared(77, commit); err != nil {
				t.Fatal(err)
			}
			want := []int64{1, 2}
			if commit {
				want = append(want, 5)
			}
			wantIDs(t, e2, "bank", "accounts", want...)

			// The resolution itself is durable: crash again, recover again.
			s.Crash(0)
			e3, stats3 := recoverEngine(t, s)
			if stats3.InDoubt != 0 {
				t.Fatalf("second recovery InDoubt = %d, want 0", stats3.InDoubt)
			}
			wantIDs(t, e3, "bank", "accounts", want...)
		})
	}
}

// TestCrashCheckpointBoundsReplay checks checkpoint-based recovery: state
// before the checkpoint is restored from images, only the tail replays, and
// a crash *during* checkpointing (no end frame) falls back to full replay.
func TestCrashCheckpointBoundsReplay(t *testing.T) {
	e, s := newWALEngine(t)
	seedBank(t, e)
	if err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	crashExec(t, e, "bank", "INSERT INTO accounts (id, bal) VALUES (3, 300)")
	crashExec(t, e, "bank", "UPDATE accounts SET bal = 111 WHERE id = 1")
	s.Crash(0)

	e2, stats := recoverEngine(t, s)
	if stats.CheckpointLSN < 0 {
		t.Fatal("recovery did not use the checkpoint")
	}
	// Only the two post-checkpoint statements replay (images cover the rest).
	if stats.Applied != 2 {
		t.Fatalf("Applied = %d, want 2", stats.Applied)
	}
	wantIDs(t, e2, "bank", "accounts", 1, 2, 3)
	res, err := e2.Exec("bank", "SELECT bal FROM accounts WHERE id = 1")
	if err != nil || len(res.Rows) != 1 || res.Rows[0][0].Int != 111 {
		t.Fatalf("post-checkpoint update lost: %v err=%v", res, err)
	}

	// Torpedo the next checkpoint midway: its end frame never lands, so
	// recovery must ignore it and still produce the same state.
	if err := e2.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	s.Chop(10) // destroys the end frame
	e3, stats3 := recoverEngine(t, s)
	wantIDs(t, e3, "bank", "accounts", 1, 2, 3)
	if stats3.CheckpointLSN >= stats.CheckpointLSN && stats3.CheckpointLSN > 0 {
		// The damaged checkpoint must not be the one used; the first (intact)
		// checkpoint is fine.
		if stats3.CheckpointLSN != stats.CheckpointLSN {
			t.Fatalf("recovery used damaged checkpoint at LSN %d", stats3.CheckpointLSN)
		}
	}
}

// TestCrashStoreFailureDuringCommit arms the byte-budget fault so the log
// device dies mid-commit: the commit must fail, the transaction must roll
// back, and recovery over the truncated log must show only prior commits.
func TestCrashStoreFailureDuringCommit(t *testing.T) {
	e, s := newWALEngine(t)
	seedBank(t, e)
	s.SetFailAfter(s.Size() + 10) // the next commit's frames die partway
	tx, err := e.Begin("bank")
	if err != nil {
		t.Fatal(err)
	}
	// The statement append may fail (budget hit) or succeed (fit under
	// budget); either way the commit must fail and roll the transaction back,
	// because its outcome record can never become durable.
	_, _ = tx.Exec("INSERT INTO accounts (id, bal) VALUES (6, 600)")
	if err := tx.Commit(); err == nil {
		t.Fatal("commit succeeded on a failing log device")
	}
	if tx.State() != TxnAborted {
		t.Fatalf("transaction state = %v, want aborted", tx.State())
	}
	// The failed transaction's effects are rolled back live, pre-recovery.
	wantIDs(t, e, "bank", "accounts", 1, 2)

	s.SetFailAfter(-1)
	s.Crash(0)
	e2, _ := recoverEngine(t, s)
	wantIDs(t, e2, "bank", "accounts", 1, 2)
}

// TestCrashCompactedLog runs the engine with log compaction enabled: each
// full checkpoint drops the dead log head, and recovery over the compacted
// log must still reproduce every committed transaction.
func TestCrashCompactedLog(t *testing.T) {
	s := wal.NewMemStore()
	e := NewEngine(DefaultConfig())
	e.AttachWAL(wal.New(s, wal.Config{Compact: true}, nil))
	seedBank(t, e)
	crashExec(t, e, "bank", "INSERT INTO accounts (id, bal) VALUES (3, 300)")

	before := s.Size()
	if err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// The checkpoint compacted the log: the whole pre-checkpoint history
	// (database creation, DDL, three inserts) is gone, and the store now
	// starts at the checkpoint begin frame.
	data, err := s.Contents()
	if err != nil {
		t.Fatal(err)
	}
	recs, _, torn := wal.Scan(data)
	if torn || len(recs) == 0 || recs[0].Type != wal.RecCheckpointBegin {
		t.Fatalf("compacted log: torn=%v first=%v, want checkpoint begin at offset 0", torn, recs)
	}
	if s.Size() >= before {
		t.Fatalf("store did not shrink at checkpoint: %d -> %d", before, s.Size())
	}

	crashExec(t, e, "bank", "INSERT INTO accounts (id, bal) VALUES (4, 400)")
	s.Crash(0)
	e2, stats := recoverEngine(t, s)
	wantIDs(t, e2, "bank", "accounts", 1, 2, 3, 4)
	if stats.Applied != 1 {
		t.Fatalf("Applied = %d, want 1 (only the post-checkpoint insert)", stats.Applied)
	}

	// A second checkpoint compacts again (recoverEngine attaches Compact
	// off, so run it on a fresh compacting engine over the same store).
	e3 := NewEngine(DefaultConfig())
	e3.AttachWAL(wal.New(s, wal.Config{Compact: true}, nil))
	if _, err := e3.Recover(); err != nil {
		t.Fatal(err)
	}
	crashExec(t, e3, "bank", "INSERT INTO accounts (id, bal) VALUES (5, 500)")
	if err := e3.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	s.Crash(0)
	e4, _ := recoverEngine(t, s)
	wantIDs(t, e4, "bank", "accounts", 1, 2, 3, 4, 5)
}

// TestCrashRandomizedCut is the property-based crash test behind `make
// crash`: a multi-transaction workload runs to completion, then the log is
// cut at a position chosen by SDP_CRASH_SEED (or a fixed seed) and recovery
// must reproduce exactly the transactions whose commit record survived the
// cut — committed-stays-committed, uncommitted-rolls-back, at every byte
// offset of the log.
func TestCrashRandomizedCut(t *testing.T) {
	seed := int64(1)
	if v := os.Getenv("SDP_CRASH_SEED"); v != "" {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			t.Fatalf("bad SDP_CRASH_SEED %q: %v", v, err)
		}
		seed = n
	}
	rng := rand.New(rand.NewSource(seed))

	// Build the reference log: 30 transactions inserting their GID as a row,
	// a sprinkle of aborts, and a mid-workload checkpoint.
	e, s := newWALEngine(t)
	seedBank(t, e)
	crashExec(t, e, "bank", "CREATE TABLE log (id INT PRIMARY KEY)")
	for gid := uint64(1); gid <= 30; gid++ {
		tx, err := e.BeginWithID("bank", gid)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tx.Exec(fmt.Sprintf("INSERT INTO log (id) VALUES (%d)", gid)); err != nil {
			t.Fatal(err)
		}
		switch {
		case gid%7 == 0:
			if err := tx.Rollback(); err != nil {
				t.Fatal(err)
			}
		default:
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
		}
		if gid == 15 {
			if err := e.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
	}
	full, err := s.Contents()
	if err != nil {
		t.Fatal(err)
	}

	for trial := 0; trial < 12; trial++ {
		cut := rng.Intn(len(full) + 1)
		t.Run(fmt.Sprintf("cut_%d", cut), func(t *testing.T) {
			// A store holding exactly the first cut bytes, as the crash left it.
			cs := wal.NewMemStore()
			if _, err := cs.Append(full[:cut]); err != nil {
				t.Fatal(err)
			}
			if err := cs.Sync(); err != nil {
				t.Fatal(err)
			}
			// Expected surviving transactions: commit records intact in the cut.
			recs, _, _ := wal.Scan(full[:cut])
			want := []int64{}
			for _, r := range recs {
				if r.Type == wal.RecCommit && r.GID != 0 {
					want = append(want, int64(r.GID))
				}
			}
			sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })

			e2, _ := recoverEngine(t, cs)
			if !e2.HasDatabase("bank") {
				if len(want) != 0 {
					t.Fatalf("database lost but %d commits survived", len(want))
				}
				return
			}
			if _, err := e2.Table("bank", "log"); err != nil {
				if len(want) != 0 {
					t.Fatalf("log table lost but %d commits survived", len(want))
				}
				return
			}
			wantIDs(t, e2, "bank", "log", want...)
		})
	}
}

// TestCloseDropsStateAndRestartRecovers checks that closing an engine — a
// machine failure — drops its catalog, cached pages and plans while its
// counters stay readable, and that a fresh engine over the same log still
// recovers every committed row.
func TestCloseDropsStateAndRestartRecovers(t *testing.T) {
	e, s := newWALEngine(t)
	if err := e.CreateDatabase("bank"); err != nil {
		t.Fatal(err)
	}
	crashExec(t, e, "bank", "CREATE TABLE accounts (id INT PRIMARY KEY, bal INT)")
	var ids []int64
	for id := int64(1); id <= 200; id++ { // enough rows to seal pages
		crashExec(t, e, "bank", fmt.Sprintf("INSERT INTO accounts (id, bal) VALUES (%d, 100)", id))
		ids = append(ids, id)
	}
	wantIDs(t, e, "bank", "accounts", ids...)
	before := e.Stats()
	if e.Pool().Len() == 0 {
		t.Fatal("reads left no page in the buffer pool")
	}

	e.Close()
	if n := len(e.Databases()); n != 0 {
		t.Fatalf("closed engine still lists %d databases", n)
	}
	if n := e.Pool().Len(); n != 0 {
		t.Fatalf("closed engine still caches %d pages", n)
	}
	if n := e.plans.len(); n != 0 {
		t.Fatalf("closed engine still caches %d plans", n)
	}
	if _, err := e.Exec("bank", "SELECT id FROM accounts"); !errors.Is(err, ErrEngineClosed) {
		t.Fatalf("query on a closed engine: got %v, want ErrEngineClosed", err)
	}
	if after := e.Stats(); after.Commits != before.Commits || after.Pool.Hits < before.Pool.Hits {
		t.Fatalf("counters lost on close: before %+v, after %+v", before, after)
	}

	r, _ := recoverEngine(t, s)
	wantIDs(t, r, "bank", "accounts", ids...)
}
