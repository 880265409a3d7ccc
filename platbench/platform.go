package main

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"sdp"
	"sdp/internal/colo"
	"sdp/internal/core"
	"sdp/internal/tpcw"
	"sdp/internal/wire"
)

// Fixed platform settings. They are the same on both sides of every
// comparison, so a change to them is a change to the benchmark.
const (
	machines        = 4
	replicas        = 2
	controllers     = 3
	recoveryThreads = 2
	poolPages       = 256
	flushLatency    = time.Millisecond

	// point-read: small key/value tenants whose rows fit each machine's
	// buffer pool (16 replicas × 512 rows = 8,192 rows = 128 pages < 256).
	kvTenants = 32
	kvRows    = 512
	kvValLen  = 16
	pointSQL  = "SELECT v FROM kv WHERE id = ?"

	// tpcw-ordering and recovery: TPC-W tenants whose rows exceed each
	// machine's pool (8 replicas × ~7,100 rows > 256 pages × 64 rows).
	tpcwTenants = 16
	tpcwItems   = 1000
	tpcwCusts   = 900
	tpcwOrders  = 800

	// spares is the free-machine pool the recovery workload draws its
	// replacement machines from, one per failure cycle.
	spares = 256

	// loaders is the number of tenants loaded concurrently during set-up.
	loaders = 4
)

// The first-fit SLA requirement per replica is an exact binary fraction of
// a unit machine, so placement puts exactly 16 (point-read) or 8 (TPC-W)
// replicas on each of the four machines.
var (
	kvSLA   = sdp.SLA{SizeMB: 62.5, MinTPS: 0.625}
	tpcwSLA = sdp.SLA{SizeMB: 125, MinTPS: 1.25}
)

// tenant is one hosted application database and the benchmark's record of
// what it loaded into it.
type tenant struct {
	idx   int // position in bench.tenants; caller idx%callers drives it
	name  string
	token string

	// kv tenants: values[id] is the loaded value of row id.
	values []string

	// TPC-W tenants: the shared order/line ID allocators, and the number of
	// BuyConfirm transactions the platform acknowledged as committed.
	scale       tpcw.Scale
	work        *tpcw.Workload
	buyConfirms atomic.Int64
}

// bench is a booted platform serving the wire protocol on loopback.
type bench struct {
	p       *sdp.Platform
	co      *colo.Controller
	cl      *core.Cluster
	srv     *wire.Server
	tenants []*tenant

	setup    time.Duration
	createMs []float64 // per-tenant CreateDatabase latency through the consensus log
}

// platformConfig is the fixed configuration every workload runs on.
func platformConfig(seed int64) sdp.Config {
	return sdp.Config{
		ReadOption:      sdp.ReadOption1,
		AckMode:         sdp.Conservative,
		Replicas:        replicas,
		ClusterSize:     machines,
		RecoveryThreads: recoveryThreads,
		PoolPages:       poolPages,
		DiskLatency:     0,
		Listen:          "127.0.0.1:0",
		WAL:             &sdp.WALConfig{FlushLatency: flushLatency},
		TraceSample:     0,
		Controllers:     controllers,
		ControllerSeed:  seed,
	}
}

// newTenants generates the workload's tenants and their data from seed.
func newTenants(kind string, seed int64) []*tenant {
	rng := rand.New(rand.NewSource(seed))
	if kind == wlPointRead {
		ts := make([]*tenant, kvTenants)
		for i := range ts {
			t := &tenant{idx: i, name: fmt.Sprintf("kv%02d", i), token: randWord(rng, 12), values: make([]string, kvRows)}
			for id := range t.values {
				t.values[id] = randWord(rng, kvValLen)
			}
			ts[i] = t
		}
		return ts
	}
	ts := make([]*tenant, tpcwTenants)
	for i := range ts {
		sc := tpcw.Scale{Items: tpcwItems, Customers: tpcwCusts, Orders: tpcwOrders, LinesPerOrder: 3, Seed: rng.Int63()}
		w := tpcw.NewWorkload(sc)
		w.ItemSkew = 0 // uniform item access, so the pool sees the whole item table
		ts[i] = &tenant{idx: i, name: fmt.Sprintf("shop%02d", i), token: randWord(rng, 12), scale: sc, work: w}
	}
	return ts
}

func randWord(rng *rand.Rand, n int) string {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte('a' + rng.Intn(26))
	}
	return string(b)
}

// boot starts a platform, creates the workload's tenants through the
// replicated control plane, loads their data and starts the wire server.
// Its duration is the set-up time.
func boot(kind string, seed int64) (*bench, error) {
	start := time.Now()
	b := &bench{tenants: newTenants(kind, seed)}
	b.p = sdp.New(platformConfig(seed))
	b.co = b.p.AddColo("local", "local", machines)
	s := tpcwSLA
	if kind == wlPointRead {
		s = kvSLA
	}
	for _, t := range b.tenants {
		t0 := time.Now()
		if err := withRetry(func() error { return b.p.CreateDatabase(t.name, s, "local") }); err != nil {
			return nil, fmt.Errorf("create %s: %w", t.name, err)
		}
		b.createMs = append(b.createMs, float64(time.Since(t0))/1e6)
		b.p.SetToken(t.name, t.token)
	}
	if cls := b.co.Clusters(); len(cls) != 1 || len(cls[0].MachineIDs()) != machines {
		return nil, fmt.Errorf("placement formed %d clusters, want one of %d machines", len(cls), machines)
	}
	b.cl = b.co.Clusters()[0]
	if kind == wlRecovery {
		b.co.AddFreeMachines(spares)
	}
	if err := b.load(); err != nil {
		return nil, err
	}
	srv, err := b.p.ServeWire()
	if err != nil {
		return nil, err
	}
	b.srv = srv
	b.setup = time.Since(start)
	return b, nil
}

// load fills every tenant, a few tenants at a time.
func (b *bench) load() error {
	var wg sync.WaitGroup
	errs := make([]error, len(b.tenants))
	sem := make(chan struct{}, loaders)
	for i, t := range b.tenants {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int, t *tenant) {
			defer wg.Done()
			defer func() { <-sem }()
			conn := platformDB{b.p.Open(t.name)}
			if t.values != nil {
				errs[i] = loadKV(conn, t.values)
			} else {
				errs[i] = tpcw.Load(conn, t.scale)
			}
		}(i, t)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("load %s: %w", b.tenants[i].name, err)
		}
	}
	return nil
}

// kvLoader is what loadKV needs from a database: a platform connection or a
// standalone engine.
type kvLoader interface {
	Exec(sql string, params ...sdp.Value) (*sdp.Result, error)
}

// loadKV creates the kv table and inserts values in 64-row statements.
func loadKV(db kvLoader, values []string) error {
	if _, err := db.Exec("CREATE TABLE kv (id INT PRIMARY KEY, v TEXT NOT NULL)"); err != nil {
		return err
	}
	const batch = 64
	for lo := 0; lo < len(values); lo += batch {
		var sb strings.Builder
		sb.WriteString("INSERT INTO kv VALUES ")
		for id := lo; id < lo+batch && id < len(values); id++ {
			if id > lo {
				sb.WriteString(", ")
			}
			fmt.Fprintf(&sb, "(%d, '%s')", id, values[id])
		}
		if _, err := db.Exec(sb.String()); err != nil {
			return err
		}
	}
	return nil
}

// platformDB adapts an in-process platform connection to tpcw.DB and
// kvLoader, retrying what the platform reports as transient.
type platformDB struct{ c *sdp.Conn }

func (d platformDB) Begin() (tpcw.Txn, error) {
	var tx *sdp.Tx
	if err := withRetry(func() (err error) { tx, err = d.c.Begin(); return err }); err != nil {
		return nil, err
	}
	return tx, nil
}

func (d platformDB) Exec(sql string, params ...sdp.Value) (*sdp.Result, error) {
	var res *sdp.Result
	err := withRetry(func() (err error) { res, err = d.c.Exec(sql, params...); return err })
	return res, err
}

// withRetry runs fn until it succeeds, fails with an error that is not
// retryable, or has been tried retryLimit times, backing off in between.
// Set-up must survive transient conditions such as the controller lease
// lapsing while the loaders keep both cores busy; a retryable error means
// the transaction was rolled back, so trying again is safe.
func withRetry(fn func() error) error {
	const retryLimit = 20
	backoff := time.Millisecond
	for attempt := 1; ; attempt++ {
		err := fn()
		if err == nil {
			return nil
		}
		if !retryable(err) || attempt == retryLimit {
			return err
		}
		time.Sleep(backoff)
		if backoff < 100*time.Millisecond {
			backoff *= 2
		}
	}
}

// replicaMap lists each live machine's hosted tenants, sorted.
func (b *bench) replicaMap() (map[string][]string, error) {
	out := make(map[string][]string)
	for _, id := range b.cl.LiveMachineIDs() {
		out[id] = []string{}
	}
	for _, t := range b.tenants {
		reps, err := b.cl.Replicas(t.name)
		if err != nil {
			return nil, err
		}
		for _, id := range reps {
			out[id] = append(out[id], t.name)
		}
	}
	for _, ts := range out {
		sort.Strings(ts)
	}
	return out, nil
}

// busiestMachine returns the live machine hosting the most replicas (the
// first in machine order on a tie) and its tenants.
func (b *bench) busiestMachine() (string, []string, error) {
	m, err := b.replicaMap()
	if err != nil {
		return "", nil, err
	}
	best := ""
	for _, id := range b.cl.LiveMachineIDs() {
		if best == "" || len(m[id]) > len(m[best]) {
			best = id
		}
	}
	return best, m[best], nil
}

// tenantByName indexes the tenants.
func (b *bench) tenantByName() map[string]*tenant {
	out := make(map[string]*tenant, len(b.tenants))
	for _, t := range b.tenants {
		out[t.name] = t
	}
	return out
}
