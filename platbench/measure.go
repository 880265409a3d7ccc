package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"time"
)

// measurement is one run: the platform, the measured window and, for a
// traced run, the replay.
type measurement struct {
	wl        string
	seed      int64
	b         *bench
	placement map[string][]string // replica map after placement
	load      loadResult
	win       window
	cycles    []cycle
	peel      *peel
	defects   []string
	elections int // controller elections in the window; non-zero marks a disturbed run
	retried   int // operations that committed or failed only after a retry

	attempted, failed int
	e2e, layer        map[string]metric // layer is nil without a traced replay
}

// measure sets the platform up, warms it, measures a window of length d
// and checks the platform's state. A traced run then replays a sample at
// every layer boundary.
func measure(wl string, seed int64, d time.Duration, traced bool) (*measurement, error) {
	b, err := boot(wl, seed)
	if err != nil {
		return nil, err
	}
	m := &measurement{wl: wl, seed: seed, b: b}
	if m.placement, err = b.replicaMap(); err != nil {
		return nil, err
	}
	warm := b.drive(seed^0x5eed, func(time.Time) { time.Sleep(warmup) })
	m.defects = append(m.defects, warm.defects...)

	var cycleErr error
	m.win.before = b.snapshot()
	m.load = b.drive(seed, func(origin time.Time) {
		if wl == wlRecovery {
			m.cycles, cycleErr = b.failCycles(origin, d)
			return
		}
		time.Sleep(d)
	})
	m.win.after = b.snapshot()
	m.defects = append(m.defects, m.load.defects...)
	if m.elections = int(m.win.counter("consensus_elections_total")); m.elections > 0 {
		fmt.Fprintf(os.Stderr, "platbench: disturbed run: %d controller elections in the measured window\n", m.elections)
	}
	if n := m.load.engineClosed; n > 0 {
		fmt.Fprintf(os.Stderr, "platbench: %d attempts failed on a failed machine's closed engine, reported as a plain execution error\n", n)
	}
	if cycleErr != nil {
		m.defects = append(m.defects, cycleErr.Error())
	}

	if traced {
		req, resp := m.frameSizes()
		if m.peel, err = b.tracedRun(seed, req, resp); err != nil {
			return nil, err
		}
		m.defects = append(m.defects, m.peel.defects...)
	}
	if wl != wlPointRead {
		b.cl.DrainResolvers()
		m.defects = append(m.defects, b.checkTPCW()...)
	}

	m.attempted = len(m.load.samples)
	for _, s := range m.load.samples {
		if s.flags&fOK == 0 {
			m.failed++
		}
		if s.retries > 0 {
			m.retried++
		}
	}
	m.e2e, m.layer = m.metrics()
	if math.IsInf(m.e2e["p50_us"].Value, 0) {
		m.defects = append(m.defects, fmt.Sprintf("%d of %d operations failed: no median latency", m.failed, m.attempted))
		m.e2e["p50_us"] = metric{Unit: "us"}
	}

	// Live heap: the platform and its data, once the benchmark has dropped
	// its samples and snapshots. The second collection empties what the
	// first left in sync.Pool victim caches.
	m.load.samples, m.win = nil, window{}
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m.e2e["live_heap_mb"] = metric{Value: float64(ms.HeapAlloc) / 1e6, Unit: "MB"}
	runtime.KeepAlive(b)
	return m, nil
}

// traceOps is the number of sampled operations the traced replay ran at
// each boundary, 0 without one.
func (m *measurement) traceOps() int {
	if m.peel == nil {
		return 0
	}
	return len(m.peel.spans[lWire])
}

// frameSizes is the wire's mean request and response frame in the window.
func (m *measurement) frameSizes() (req, resp int) {
	msgs := m.win.counter("wire_msgs_total")
	return int(ratio(m.win.counter("wire_bytes_read_total"), msgs) + 0.5),
		int(ratio(m.win.counter("wire_bytes_written_total"), msgs) + 0.5)
}

// latencies returns the completed operations' latencies in µs that pass
// keep.
func (m *measurement) latencies(keep func(sample) bool) []float64 {
	var out []float64
	for _, s := range m.load.samples {
		if s.flags&fOK != 0 && keep(s) {
			out = append(out, us(s.lat))
		}
	}
	return out
}

// metrics computes the run's end-to-end metrics and, after a traced
// replay, its per-layer metrics. Set-up time and live heap are added by
// the caller.
func (m *measurement) metrics() (e2e, layer map[string]metric) {
	n := len(m.load.samples)
	ok := n - m.failed
	e2e = map[string]metric{}
	set := func(name, unit string, v float64) { e2e[name] = metric{Value: v, Unit: unit} }
	all := m.latencies(func(sample) bool { return true })
	set("tps", "1/s", float64(ok)/m.load.elapsed.Seconds())
	set("p50_us", "us", quantileFailedLast(all, n-ok, 0.50))
	set("p95_us", "us", quantile(all, 0.95))
	set("ok_frac", "ratio", ratio(float64(ok), float64(n)))
	if m.peel == nil {
		return e2e, nil
	}

	layer = map[string]metric{}
	set = func(name, unit string, v float64) { layer[name] = metric{Value: v, Unit: unit} }
	// End-to-end figures that exist only on some workloads or are too
	// noisy to carry a bound.
	set("p99_us", "us", quantile(all, 0.99))
	ro := m.latencies(func(s sample) bool { return s.flags&fRW == 0 })
	rw := m.latencies(func(s sample) bool { return s.flags&fRW != 0 })
	set("ro_p50_us", "us", quantile(ro, 0.50))
	set("ro_p99_us", "us", quantile(ro, 0.99))
	set("rw_p50_us", "us", quantile(rw, 0.50))
	set("rw_p99_us", "us", quantile(rw, 0.99))
	set("fail_frac", "ratio", ratio(float64(n-ok), float64(n)))
	var recS []float64
	var copyTime time.Duration
	for _, c := range m.cycles {
		recS = append(recS, c.dur.Seconds())
		copyTime += c.dur
	}
	// Inside copy windows: attempts and those refused or aborted, every
	// retry counted, and the operations that completed.
	var tries, refused, okInWin int
	for _, s := range m.load.samples {
		if inCopy(m.cycles, s.at) {
			tries += 1 + int(s.retries)
			refused += int(s.retries)
			if s.flags&fOK != 0 {
				okInWin++
			} else {
				refused++
			}
		}
	}
	set("recovery_s", "s", median(recS))
	set("recovery_tps", "1/s", ratio(float64(okInWin), copyTime.Seconds()))
	set("recovery_fail_frac", "ratio", ratio(float64(refused), float64(tries)))

	w := m.win
	ops := float64(n)
	pl := m.peel
	hist := func(name string, scale float64) float64 { return w.hist(name).Quantile(0.5) * scale }

	set("wire.self_us", "us", pl.selfUs[lWire])
	set("wire.bytes_per_op", "B/op", ratio(w.counter("wire_bytes_read_total")+w.counter("wire_bytes_written_total"), ops))
	set("wire.connect_us", "us", median(m.load.connectUs))
	set("wire.server_exec_us", "us", hist("wire_exec_seconds", 1e6))
	set("wire.msgs_per_op", "count", ratio(w.counter("wire_msgs_total"), ops))
	set("kernel.loopback_rtt_us", "us", pl.echoUs)
	set("system.self_us", "us", pl.selfUs[lSystem])

	committed, aborted := w.counter("core_txn_committed_total"), w.counter("core_txn_aborted_total")
	prepares := w.counter("core_2pc_prepare_total")
	set("core.self_us", "us", pl.selfUs[lCore])
	set("core.prepare_us", "us", hist("core_2pc_prepare_seconds", 1e6))
	set("core.commit_us", "us", hist("core_2pc_commit_seconds", 1e6))
	set("core.abort_frac", "ratio", ratio(aborted, committed+aborted))
	set("core.readonly_1pc_frac", "ratio", ratio(w.counter("core_2pc_readonly_commit_total"), committed))
	set("core.copy_dump_ms", "ms", hist("core_copy_dump_seconds", 1e3))
	set("core.recovery_ms", "ms", hist("core_recovery_seconds", 1e3))
	set("core.writes_rejected", "count", w.counter("core_writes_rejected_total"))

	e := w.engineDelta()
	set("sqldb.self_us", "us", pl.selfUs[lSQL])
	set("sqldb.optimistic_hit_frac", "ratio", ratio(float64(e.OptimisticHits), float64(e.StmtExecs)))
	set("sqldb.pool_hit_rate", "ratio", ratio(float64(e.Pool.Hits), float64(e.Pool.Hits+e.Pool.Misses)))
	set("sqldb.plan_cache_hit_rate", "ratio", ratio(float64(e.PlanCache.Hits), float64(e.PlanCache.Hits+e.PlanCache.Misses)))
	set("sqldb.compiled_frac", "ratio", ratio(float64(e.CompiledExecs), float64(e.StmtExecs)))
	set("sqldb.deadlocks_per_1k", "count", ratio(float64(e.Deadlocks)*1000, ops))

	batch := w.hist("wal_flush_batch_size")
	set("wal.self_us", "us", pl.selfUs[lWAL])
	set("wal.flushes_per_commit", "count", ratio(w.counter("wal_flush_total"), prepares))
	set("wal.batch_mean", "count", batch.Mean())
	set("wal.bytes_per_commit", "B", ratio(w.counter("wal_appended_bytes_total"), prepares))
	set("wal.sync_us", "us", pl.syncUs)

	set("consensus.proposals", "count", w.counter("consensus_proposals_total"))
	set("consensus.create_db_ms", "ms", median(append([]float64(nil), m.b.createMs...)))
	set("consensus.elections", "count", float64(m.elections))

	set("go.alloc_bytes_per_op", "B/op", ratio(float64(w.after.mem.TotalAlloc-w.before.mem.TotalAlloc), ops))
	set("go.gc_cycles_per_1k", "count", ratio(float64(w.after.mem.NumGC-w.before.mem.NumGC)*1000, ops))

	var selfSum float64
	for _, s := range pl.selfUs {
		selfSum += s
	}
	set("trace.wire_us", "us", pl.wireUs)
	set("trace.self_sum_frac", "ratio", ratio(selfSum, pl.wireUs))
	set("trace.overhead_frac", "ratio", ratio(pl.wireUs, e2e["p50_us"].Value)-1)
	if pl.failures.Load() > 0 {
		fmt.Fprintf(os.Stderr, "traced replay: %d retryable failures\n", pl.failures.Load())
	}
	return e2e, layer
}
