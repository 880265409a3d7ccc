package main

import (
	"fmt"
	"sort"
	"time"
)

// cyclesPerRun is how many machine failures a recovery run spreads evenly
// over its window. It is fixed, not scaled with the window, because a failed
// machine's engine keeps its tables in memory: each cycle adds one machine's
// data to the live heap. Three keep the operations a copy catches near 2%
// of a window, so p95_us stays below them even when a slow host doubles
// the copies' length; with six they were 3-5%, and a slow host moved
// p95_us by up to 70%.
const cyclesPerRun = 3

// cycle is one machine failure and the Algorithm 1 re-replication that
// followed it.
type cycle struct {
	at, dur time.Duration // failure time since the window's origin; until every affected tenant is back at degree 2
	victim  string
	dbs     []string
}

// failCycles fails the busiest machine and waits for its recovery
// cyclesPerRun times, at evenly spaced points of the window [origin,
// origin+d], then waits out the window. Each cycle checks that every
// affected tenant is back at full degree.
func (b *bench) failCycles(origin time.Time, d time.Duration) ([]cycle, error) {
	var cycles []cycle
	for i := 0; i < cyclesPerRun; i++ {
		time.Sleep(time.Until(origin.Add(d * time.Duration(2*i+1) / (2 * cyclesPerRun))))
		victim, hosted, err := b.busiestMachine()
		if err != nil {
			return cycles, err
		}
		t0 := time.Now()
		rep, err := b.co.FailMachine(victim)
		c := cycle{at: t0.Sub(origin), dur: time.Since(t0), victim: victim, dbs: hosted}
		if err != nil {
			return cycles, fmt.Errorf("fail %s: %w", victim, err)
		}
		if len(rep.Failed) > 0 {
			return cycles, fmt.Errorf("fail %s: recovery failed for %v", victim, rep.Failed)
		}
		recovered := append([]string(nil), rep.Recovered...)
		sort.Strings(recovered)
		if fmt.Sprint(recovered) != fmt.Sprint(hosted) {
			return cycles, fmt.Errorf("fail %s: recovered %v, hosted %v", victim, recovered, hosted)
		}
		for _, db := range hosted {
			reps, err := b.cl.Replicas(db)
			if err != nil {
				return cycles, err
			}
			if len(reps) != replicas {
				return cycles, fmt.Errorf("fail %s: %s back at degree %d, want %d", victim, db, len(reps), replicas)
			}
		}
		cycles = append(cycles, c)
	}
	time.Sleep(time.Until(origin.Add(d)))
	return cycles, nil
}

// inCopy reports whether an operation that started at off ran inside a copy
// window.
func inCopy(cycles []cycle, off time.Duration) bool {
	for _, c := range cycles {
		if off >= c.at && off <= c.at+c.dur {
			return true
		}
	}
	return false
}
