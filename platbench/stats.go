package main

import (
	"math"
	"runtime"
	"sort"
	"time"

	"sdp/internal/obs"
	"sdp/internal/sqldb"
)

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (xs is sorted in place). It is 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	i := int(pos)
	if i+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[i] + (pos-float64(i))*(xs[i+1]-xs[i])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantileFailedLast is the q-quantile of the completed operations'
// latencies xs together with failed operations, which rank above every
// completed one: their users got no answer. It is +Inf when the quantile
// falls among the failed operations.
func quantileFailedLast(xs []float64, failed int, q float64) float64 {
	sort.Float64s(xs)
	pos := q * float64(len(xs)+failed-1)
	i := int(pos)
	switch {
	case i >= len(xs):
		return math.Inf(1)
	case i+1 >= len(xs):
		return xs[i]
	}
	return xs[i] + (pos-float64(i))*(xs[i+1]-xs[i])
}

// ratio is num/den, or 0 when den is 0 (the mechanism did not run).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// snap is the program's counters at one instant: the platform registry,
// the Go runtime, and every engine's statistics.
type snap struct {
	reg     obs.Snapshot
	mem     runtime.MemStats
	engines map[string]sqldb.Stats
}

// snapshot reads every counter. Engine statistics are read per machine,
// failed ones included, because the sqldb_engine_stat gauge sums live
// machines only and would step down when a machine fails mid-window.
func (b *bench) snapshot() snap {
	s := snap{reg: b.p.Metrics().Snapshot(), engines: make(map[string]sqldb.Stats)}
	for _, id := range b.cl.MachineIDs() {
		if m, err := b.cl.Machine(id); err == nil {
			s.engines[id] = m.Engine().Stats()
		}
	}
	runtime.ReadMemStats(&s.mem)
	return s
}

// window is the difference between two snapshots.
type window struct{ before, after snap }

func (w window) counter(name string) float64 {
	return float64(w.after.reg.Counter(name) - w.before.reg.Counter(name))
}

// hist returns the histogram of the observations made inside the window.
func (w window) hist(name string) obs.HistogramSnapshot {
	a, _ := w.after.reg.Histogram(name)
	b, ok := w.before.reg.Histogram(name)
	d := obs.HistogramSnapshot{Bounds: a.Bounds, Buckets: append([]uint64(nil), a.Buckets...), Sum: a.Sum, Count: a.Count}
	if ok {
		for i := range d.Buckets {
			if i < len(b.Buckets) {
				d.Buckets[i] -= b.Buckets[i]
			}
		}
		d.Sum -= b.Sum
		d.Count -= b.Count
	}
	return d
}

// engineDelta sums every engine's statistics growth over the window.
func (w window) engineDelta() sqldb.Stats {
	var d sqldb.Stats
	for id, a := range w.after.engines {
		b := w.before.engines[id]
		d.Deadlocks += a.Deadlocks - b.Deadlocks
		d.StmtExecs += a.StmtExecs - b.StmtExecs
		d.CompiledExecs += a.CompiledExecs - b.CompiledExecs
		d.OptimisticHits += a.OptimisticHits - b.OptimisticHits
		d.Pool.Hits += a.Pool.Hits - b.Pool.Hits
		d.Pool.Misses += a.Pool.Misses - b.Pool.Misses
		d.PlanCache.Hits += a.PlanCache.Hits - b.PlanCache.Hits
		d.PlanCache.Misses += a.PlanCache.Misses - b.PlanCache.Misses
	}
	return d
}

func us(d time.Duration) float64 { return float64(d) / 1e3 }
