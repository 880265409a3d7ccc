package main

import (
	"fmt"
	"io"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"sdp"
	"sdp/internal/sqldb"
	"sdp/internal/tpcw"
	"sdp/internal/wal"
)

// Layer boundaries of the traced run, top to bottom. Each replays the same
// sample of operations; kernel is a raw loopback echo measured beside them.
const (
	lWire = iota
	lSystem
	lCore
	lSQL
	lWAL
	numLayers
)

var layerNames = [numLayers]string{"wire", "system", "core", "sqldb", "wal"}

// Traced-sample sizes, in sessions of the load's length.
const (
	pointTraceSessions = 8
	tpcwTraceSessions  = 6
	echoRounds         = 4000
)

// opSpec is one sampled operation: a point read of key id, or a TPC-W
// transaction of kind whose parameters come from a generator seeded with
// seed (so every boundary runs identical parameters).
type opSpec struct {
	id   int64
	kind tpcw.TxKind
	seed int64
}

type traceSession struct {
	c   int // the caller that replays it
	t   *tenant
	ops []opSpec
	idx int // index of ops[0] in the flattened sample
}

// peel is the traced run's result. Its spans are kept in memory as the
// duration of every sampled operation at every boundary.
type peel struct {
	spans    [numLayers][]time.Duration
	selfUs   [numLayers]float64
	wireUs   float64 // median at the wire boundary
	syncUs   float64 // median delivered flush time at the wal boundary
	echoUs   float64 // median raw loopback echo round trip
	defects  []string
	failures atomic.Int64 // retryable failures during the replay
}

// tracedRun replays a seeded sample of the workload's operations at every
// layer boundary with the load's two callers and records a span around each
// call. The sample draws tenants hosted by one machine, which a standalone
// engine then mirrors: same tenants, same data, same pool size, so its
// buffer pool holds what that machine's holds.
func (b *bench) tracedRun(seed int64, reqBytes, respBytes int) (*peel, error) {
	machine, hosted, err := b.busiestMachine()
	if err != nil {
		return nil, err
	}
	byName := b.tenantByName()
	var ts []*tenant
	for _, name := range hosted {
		ts = append(ts, byName[name])
	}
	sessions := sampleSessions(ts, seed)
	nops := 0
	for _, s := range sessions {
		nops += len(s.ops)
	}
	eng, works, err := mirrorEngine(ts)
	if err != nil {
		return nil, fmt.Errorf("mirror %s: %w", machine, err)
	}
	defer eng.Close()

	pl := &peel{}
	durs := &pl.spans
	writes := make([][]string, nops) // write statements per op, captured at the sqldb boundary
	for l := lWire; l <= lSQL; l++ {
		durs[l] = make([]time.Duration, nops)
		open := b.opener(l, eng, works)
		err := replay(sessions, func(c int, s traceSession) error {
			cn, w, err := open(s.t)
			if err != nil {
				return err
			}
			defer cn.close()
			var captured []string
			if ec, ok := cn.(*engineConn); ok {
				ec.writes = &captured
			}
			for i, op := range s.ops {
				var rng *rand.Rand
				if s.t.values == nil {
					rng = rand.New(rand.NewSource(op.seed))
				}
				t0 := time.Now()
				err := b.runOp(cn, s.t, w, op, rng, l != lSQL)
				d := time.Since(t0)
				durs[l][s.idx+i] = d
				if err != nil {
					if !retryable(err) {
						return fmt.Errorf("%s boundary, %s: %w", layerNames[l], s.t.name, err)
					}
					pl.failures.Add(1)
				}
				if l == lSQL && len(captured) > 0 {
					writes[s.idx+i] = append([]string(nil), captured...)
				}
			}
			return nil
		})
		if err != nil {
			pl.defects = append(pl.defects, err.Error())
			return pl, nil
		}
	}
	durs[lWAL], pl.syncUs = walReplay(sessions, writes)

	for l := 0; l < numLayers; l++ {
		self := make([]float64, nops)
		for i := range self {
			self[i] = us(durs[l][i])
			if l+1 < numLayers {
				self[i] -= us(durs[l+1][i])
			}
		}
		pl.selfUs[l] = median(self)
	}
	wire := make([]float64, nops)
	for i := range wire {
		wire[i] = us(durs[lWire][i])
	}
	pl.wireUs = median(wire)
	pl.echoUs, err = loopbackEcho(reqBytes, respBytes)
	return pl, err
}

// runOp runs one sampled operation through cn. Point reads are checked
// against the loaded value; platform-side BuyConfirm commits are counted
// for the order-growth check.
func (b *bench) runOp(cn conn, t *tenant, w *tpcw.Workload, op opSpec, rng *rand.Rand, platform bool) error {
	if t.values != nil {
		v, err := cn.point(op.id)
		if err == nil && v != t.values[op.id] {
			return fmt.Errorf("key %d read %q, loaded %q", op.id, v, t.values[op.id])
		}
		return err
	}
	err := runTxn(cn, w, op.kind, rng)
	if err == nil && platform && op.kind == tpcw.TxBuyConfirm {
		t.buyConfirms.Add(1)
	}
	return err
}

// opener returns how a session is opened at boundary l, outside the timed
// calls, and which TPC-W workload state its transactions draw IDs from.
func (b *bench) opener(l int, eng *sqldb.Engine, works map[string]*tpcw.Workload) func(*tenant) (conn, *tpcw.Workload, error) {
	stmt, _ := sqldb.Parse(pointSQL)
	return func(t *tenant) (conn, *tpcw.Workload, error) {
		switch l {
		case lWire:
			wc, err := dialWire(b.srv.Addr(), t)
			if err != nil {
				return nil, nil, err
			}
			if err := wc.warm(t); err != nil {
				wc.close()
				return nil, nil, err
			}
			return wc, t.work, nil
		case lSystem:
			c := b.p.Open(t.name)
			st, err := c.Prepare(pointSQL)
			return &systemConn{c: c, stmt: st}, t.work, err
		case lCore:
			cl, err := b.co.Route(t.name)
			return &coreConn{cl: cl, db: t.name, stmt: stmt}, t.work, err
		default:
			return &engineConn{e: eng, db: t.name, stmt: stmt}, works[t.name], nil
		}
	}
}

// replay runs each session on its caller, the callers concurrently, and
// returns the first error.
func replay(sessions []traceSession, run func(c int, s traceSession) error) error {
	errs := make([]error, callers)
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for _, s := range sessions {
				if s.c == c && errs[c] == nil {
					errs[c] = run(c, s)
				}
			}
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// sampleSessions draws the traced sample as the load does: each caller runs
// sessions of the load's length on its own tenants, picked by Zipf.
func sampleSessions(ts []*tenant, seed int64) []traceSession {
	rng := rand.New(rand.NewSource(seed ^ 0x7ace))
	n := tpcwTraceSessions
	if ts[0].values != nil {
		n = pointTraceSessions
	}
	var zipfs [callers]*rand.Zipf
	var owns [callers][]*tenant
	for c := range owns {
		owns[c] = ownTenants(ts, c)
		if len(owns[c]) > 0 {
			zipfs[c] = rand.NewZipf(rng, zipfS, 1, uint64(len(owns[c])-1))
		}
	}
	var out []traceSession
	idx := 0
	for i := 0; i < n; i++ {
		c := i % callers
		if zipfs[c] == nil {
			c = (c + 1) % callers
		}
		t := owns[c][zipfs[c].Uint64()]
		s := traceSession{c: c, t: t, idx: idx}
		if t.values != nil {
			for j := 0; j < pointOpsPerSession; j++ {
				s.ops = append(s.ops, opSpec{id: rng.Int63n(int64(len(t.values)))})
			}
		} else {
			for _, kind := range deck(rng) {
				s.ops = append(s.ops, opSpec{kind: kind, seed: rng.Int63()})
			}
		}
		idx += len(s.ops)
		out = append(out, s)
	}
	return out
}

// mirrorEngine builds a standalone engine holding the given tenants with
// their loaded data, the platform's engine configuration and a write-ahead
// log with the platform's flush latency. Each TPC-W tenant gets its own
// ID allocators, so replayed orders never collide with loaded ones.
func mirrorEngine(ts []*tenant) (*sqldb.Engine, map[string]*tpcw.Workload, error) {
	cfg := sqldb.DefaultConfig()
	cfg.PoolPages = poolPages
	e := sqldb.NewEngine(cfg)
	works := make(map[string]*tpcw.Workload)
	for _, t := range ts {
		if err := e.CreateDatabase(t.name); err != nil {
			return nil, nil, err
		}
		if t.values != nil {
			if err := loadKV(engineExec{e, t.name}, t.values); err != nil {
				return nil, nil, err
			}
			continue
		}
		if err := tpcw.Load(engineDB{e, t.name}, t.scale); err != nil {
			return nil, nil, err
		}
		w := tpcw.NewWorkload(t.scale)
		w.ItemSkew = t.work.ItemSkew
		works[t.name] = w
	}
	e.AttachWAL(wal.New(wal.NewMemStore(), wal.Config{FlushLatency: flushLatency}, nil))
	return e, works, nil
}

type engineExec struct {
	e  *sqldb.Engine
	db string
}

func (x engineExec) Exec(sql string, params ...sdp.Value) (*sdp.Result, error) {
	return x.e.Exec(x.db, sql, params...)
}

type engineDB struct {
	e  *sqldb.Engine
	db string
}

func (x engineDB) Begin() (tpcw.Txn, error) { return x.e.Begin(x.db) }

// walReplay replays, on a standalone log over a simulated disk with the
// platform's flush latency, the log records each sampled read-write
// transaction wrote at the sqldb boundary: a begin record, one record per
// write statement, and a forced commit record. Reads write no records and
// take no time here. It returns the per-operation durations and the median
// delivered flush time.
func walReplay(sessions []traceSession, writes [][]string) ([]time.Duration, float64) {
	log := wal.New(wal.NewMemStore(), wal.Config{FlushLatency: flushLatency}, nil)
	durs := make([]time.Duration, len(writes))
	syncs := make([][]float64, callers)
	_ = replay(sessions, func(c int, s traceSession) error {
		for i := range s.ops {
			op := s.idx + i
			if len(writes[op]) == 0 {
				continue
			}
			t0 := time.Now()
			txn := uint64(op + 1)
			_, _ = log.Append(wal.Record{Type: wal.RecBegin, Txn: txn, DB: s.t.name})
			for _, w := range writes[op] {
				_, _ = log.Append(wal.Record{Type: wal.RecStatement, Txn: txn, DB: s.t.name, Data: []byte(w)})
			}
			_, _ = log.Append(wal.Record{Type: wal.RecCommit, Txn: txn, DB: s.t.name})
			s0 := time.Now()
			_ = log.Sync()
			syncs[c] = append(syncs[c], us(time.Since(s0)))
			durs[op] = time.Since(t0)
		}
		return nil
	})
	var all []float64
	for _, s := range syncs {
		all = append(all, s...)
	}
	return durs, median(all)
}

// loopbackEcho measures the kernel floor: a raw TCP round trip carrying
// frames of the wire's mean request and response sizes, on the load's
// number of concurrent connections.
func loopbackEcho(reqBytes, respBytes int) (float64, error) {
	if reqBytes < 1 {
		reqBytes = 1
	}
	if respBytes < 1 {
		respBytes = 1
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer lis.Close()
	var srvWG sync.WaitGroup
	srvWG.Add(1)
	go func() {
		defer srvWG.Done()
		var conns sync.WaitGroup
		for {
			c, err := lis.Accept()
			if err != nil {
				break
			}
			conns.Add(1)
			go func(c net.Conn) {
				defer conns.Done()
				defer c.Close()
				req, resp := make([]byte, reqBytes), make([]byte, respBytes)
				for {
					if _, err := io.ReadFull(c, req); err != nil {
						return
					}
					if _, err := c.Write(resp); err != nil {
						return
					}
				}
			}(c)
		}
		conns.Wait()
	}()
	rtts := make([][]float64, callers)
	errs := make([]error, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, err := net.Dial("tcp", lis.Addr().String())
			if err != nil {
				errs[i] = err
				return
			}
			defer c.Close()
			req, resp := make([]byte, reqBytes), make([]byte, respBytes)
			for r := 0; r < echoRounds; r++ {
				t0 := time.Now()
				if _, err := c.Write(req); err != nil {
					errs[i] = err
					return
				}
				if _, err := io.ReadFull(c, resp); err != nil {
					errs[i] = err
					return
				}
				rtts[i] = append(rtts[i], us(time.Since(t0)))
			}
		}(i)
	}
	wg.Wait()
	lis.Close()
	srvWG.Wait()
	var all []float64
	for i := range rtts {
		if errs[i] != nil {
			return 0, errs[i]
		}
		all = append(all, rtts[i]...)
	}
	return median(all), nil
}
