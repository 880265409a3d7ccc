package main

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"sdp/internal/tpcw"
)

const (
	// callers is the number of closed-loop callers, one per core of the
	// reference machine; each holds one tenant session at a time.
	callers = 2
	// Point reads per tenant session; a TPC-W session runs one deck.
	pointOpsPerSession = 400
	// zipfS skews the tenant a session picks: a few tenants are busy, most
	// are quiet, as on a platform hosting many small applications.
	zipfS = 1.1
)

// Sample flags.
const (
	fOK = 1 << iota // the operation completed
	fRW             // a read-write TPC-W transaction
)

// sample is one operation: when it started (since the window's origin),
// how long it took with its retries, and how it ended.
type sample struct {
	at      time.Duration
	lat     time.Duration
	flags   uint8
	retries uint8 // attempts refused or aborted before the last
}

// loadResult is what the callers saw in one window.
type loadResult struct {
	samples   []sample
	connectUs []float64 // per session: dial, handshake and warm
	elapsed   time.Duration
	defects   []string // wrong reads and non-retryable errors
	// engineClosed counts failed TPC-W transactions that hit a failed
	// machine's closed engine (see engineClosed).
	engineClosed int
}

func (r *loadResult) add(o *loadResult) {
	r.samples = append(r.samples, o.samples...)
	r.connectUs = append(r.connectUs, o.connectUs...)
	r.defects = append(r.defects, o.defects...)
	r.engineClosed += o.engineClosed
}

// deck is one session's transaction kinds: every kind of the ordering mix
// as many times as its weight (100 transactions in all), dealt in a seeded
// random order. Dealing the mix exactly, rather than drawing each kind,
// keeps the read-write share at exactly one half in every session and,
// because callers stop only between sessions, in every window. The latency
// median sits at the lower edge of the read-write mode then; an excess of
// ten to twenty read-only transactions in a window would drop it into the
// read-only mode.
func deck(rng *rand.Rand) []tpcw.TxKind {
	var d []tpcw.TxKind
	for k, w := range tpcw.OrderingMix.Weights {
		for i := 0; i < w; i++ {
			d = append(d, tpcw.TxKind(k))
		}
	}
	rng.Shuffle(len(d), func(i, j int) { d[i], d[j] = d[j], d[i] })
	return d
}

// drive runs the closed-loop callers over the wire until during returns,
// then stops them and waits. A caller stops between sessions, never inside
// one, so every TPC-W deck in the window is dealt whole. during runs in the
// calling goroutine; origin is when the callers started, and the window
// lasts until the last caller has stopped.
func (b *bench) drive(seed int64, during func(origin time.Time)) loadResult {
	var stop atomic.Bool
	results := make([]loadResult, callers)
	origin := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = b.caller(i, seed+int64(i)*7919, origin, &stop)
		}(i)
	}
	during(origin)
	stop.Store(true)
	wg.Wait()
	out := loadResult{elapsed: time.Since(origin)}
	for i := range results {
		out.add(&results[i])
	}
	return out
}

// ownTenants is the share of ts that caller c drives: tenant i belongs to
// caller i mod callers. Each tenant's application server waits for its
// reply, so no two callers ever run sessions on the same tenant at once.
func ownTenants(ts []*tenant, c int) []*tenant {
	var out []*tenant
	for _, t := range ts {
		if t.idx%callers == c {
			out = append(out, t)
		}
	}
	return out
}

// caller runs tenant sessions back to back on its own tenants until stop is
// set. Session set-up, timed as connect cost, includes a transaction begun
// and rolled back on a TPC-W tenant, so the connection wire.Client pins
// for transactions is open before the first timed one. A retryable refusal
// while readying a session, such as a lapsed controller lease, skips the
// session.
func (b *bench) caller(c int, seed int64, origin time.Time, stop *atomic.Bool) loadResult {
	rng := rand.New(rand.NewSource(seed))
	own := ownTenants(b.tenants, c)
	zipf := rand.NewZipf(rng, zipfS, 1, uint64(len(own)-1))
	var r loadResult
	for !stop.Load() && len(r.defects) == 0 {
		t := own[zipf.Uint64()]
		c0 := time.Now()
		wc, err := dialWire(b.srv.Addr(), t)
		if err == nil {
			if err = wc.warm(t); err != nil {
				wc.close()
				if retryable(err) {
					continue
				}
			}
		}
		if err != nil {
			r.defects = append(r.defects, fmt.Sprintf("session on %s: %v", t.name, err))
			break
		}
		r.connectUs = append(r.connectUs, float64(time.Since(c0))/1e3)
		if t.values != nil {
			b.pointSession(wc, t, rng, origin, &r)
		} else {
			b.tpcwSession(wc, t, rng, origin, &r)
		}
		wc.close()
	}
	return r
}

func (b *bench) pointSession(wc *wireConn, t *tenant, rng *rand.Rand, origin time.Time, r *loadResult) {
	for i := 0; i < pointOpsPerSession; i++ {
		id := rng.Int63n(int64(len(t.values)))
		t0 := time.Now()
		v, err := wc.point(id)
		s := sample{at: t0.Sub(origin), lat: time.Since(t0)}
		switch {
		case err == nil && v == t.values[id]:
			s.flags = fOK
		case err == nil:
			r.defects = append(r.defects, fmt.Sprintf("%s: key %d read %q, loaded %q", t.name, id, v, t.values[id]))
		default:
			if !retryable(err) {
				r.defects = append(r.defects, fmt.Sprintf("%s: point read: %v", t.name, err))
			}
		}
		r.samples = append(r.samples, s)
		if len(r.defects) > 0 {
			return
		}
	}
}

// Retries of a refused or aborted TPC-W transaction follow wire.Client's
// contract for autocommit calls: the first waits its default RetryBackoff of
// 200 µs, and each later one twice as long. wire.Client never retries an
// explicit transaction, because the application owns its statements, so the
// session does. Its limit is higher than the client's 5 so that the retries
// (about 0.8 s in all) outlast the Algorithm 1 re-replication of a whole
// failed machine, 0.2-0.4 s on a 2-vCPU VM: a refused write waits out the
// copy and then commits.
const (
	retryBackoff = 200 * time.Microsecond
	retryLimit   = 12
)

// tpcwSession deals one deck. A transaction that fails with a retryable
// error, refused by Algorithm 1 or aborted, is retried with the same
// parameters until it commits or the retries run out; its latency runs from
// the first attempt to the last.
func (b *bench) tpcwSession(wc *wireConn, t *tenant, rng *rand.Rand, origin time.Time, r *loadResult) {
	txSrc := &splitMix{}
	txRng := rand.New(txSrc)
	for _, kind := range deck(rng) {
		txSeed := rng.Int63()
		t0 := time.Now()
		s := sample{at: t0.Sub(origin)}
		if kind.IsWrite() {
			s.flags |= fRW
		}
		backoff := retryBackoff
		for {
			txRng.Seed(txSeed)
			err := runTxn(wc, t.work, kind, txRng)
			if err == nil {
				s.flags |= fOK
				if kind == tpcw.TxBuyConfirm {
					t.buyConfirms.Add(1)
				}
				break
			}
			if engineClosed(err) {
				r.engineClosed++
			} else if !retryable(err) {
				r.defects = append(r.defects, fmt.Sprintf("%s: %s: %v", t.name, kind, err))
				break
			}
			if int(s.retries) == retryLimit {
				break
			}
			s.retries++
			time.Sleep(backoff)
			backoff *= 2
		}
		s.lat = time.Since(t0)
		r.samples = append(r.samples, s)
		if len(r.defects) > 0 {
			return
		}
	}
}

// splitMix is a math/rand source with one word of state (SplitMix64), so a
// transaction's generator can be re-seeded for each attempt at no cost and
// a retry draws the same parameters as the attempt it repeats.
type splitMix struct{ x uint64 }

func (s *splitMix) Seed(seed int64) { s.x = uint64(seed) }

func (s *splitMix) Int63() int64 {
	s.x += 0x9e3779b97f4a7c15
	z := s.x
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return int64((z ^ z>>31) >> 1)
}
