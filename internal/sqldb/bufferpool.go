package sqldb

import (
	"container/list"
	"sync"
	"sync/atomic"
	"time"

	"sdp/internal/obs"
)

// PageKey identifies a page across all tables of one engine.
type PageKey struct {
	Table string
	Page  int
}

// PoolStats reports buffer-pool activity counters.
type PoolStats struct {
	Hits      uint64
	Misses    uint64
	Evictions uint64
}

// HitRate returns hits/(hits+misses), or 0 when no accesses were made.
func (s PoolStats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// poolStripeTarget is the minimum capacity (in pages) per stripe: pools
// smaller than two stripes' worth keep a single stripe and therefore exact
// global LRU order. maxPoolStripes bounds the stripe count for huge pools.
const (
	poolStripeTarget = 32
	maxPoolStripes   = 16
)

// BufferPool is a fixed-capacity LRU cache of decoded pages, one per engine.
// It models the DBMS buffer pool of the paper's MySQL instances: a hit serves
// already-decoded rows, a miss pays the decode cost of the page's disk format
// plus an optional simulated disk latency. The pool is the mechanism that
// makes the paper's read-routing options (1/2/3) perform differently — routing
// all of a database's reads to one replica keeps that replica's pool warm.
//
// The pool is sharded into lock stripes keyed by PageKey hash so concurrent
// clients do not serialise on a single mutex. Capacity is partitioned across
// stripes (each stripe runs its own LRU over its share), and the stripe count
// scales with capacity: small pools — like the ones the pool-size ablation
// experiments use — keep one stripe and exact global LRU semantics. The
// hit/miss/eviction counters are pool-global atomics and stay exact
// regardless of striping.
type BufferPool struct {
	stripes     []poolStripe
	missLatency time.Duration

	// hitMiss packs the hit (A) and miss (B) counters into one word so
	// Stats() returns a pair that was simultaneously true — a concurrent
	// reader can never observe a hit whose matching access is missing from
	// the total (see obs.Pair).
	hitMiss   obs.Pair
	evictions atomic.Uint64
}

// poolStripe is one lock-striped LRU segment of the pool.
type poolStripe struct {
	mu       sync.Mutex
	capacity int
	entries  map[PageKey]*list.Element
	lru      *list.List // front = most recently used

	_ [32]byte // pad to keep neighbouring stripe mutexes off one cache line
}

type poolEntry struct {
	key   PageKey
	slots []pageSlot
}

// poolStripeCount picks the stripe count for a capacity.
func poolStripeCount(capacity int) int {
	n := capacity / poolStripeTarget
	if n > maxPoolStripes {
		n = maxPoolStripes
	}
	if n < 1 {
		n = 1
	}
	return n
}

// NewBufferPool creates a pool holding at most capacity decoded pages.
// A capacity of 0 or less disables caching entirely (every access is a miss).
// missLatency is added to every miss to simulate disk I/O; zero disables it.
func NewBufferPool(capacity int, missLatency time.Duration) *BufferPool {
	n := 1
	if capacity > 0 {
		n = poolStripeCount(capacity)
	}
	p := &BufferPool{
		stripes:     make([]poolStripe, n),
		missLatency: missLatency,
	}
	base, extra := 0, 0
	if capacity > 0 {
		base, extra = capacity/n, capacity%n
	}
	for i := range p.stripes {
		cap := base
		if i < extra {
			cap++
		}
		p.stripes[i] = poolStripe{
			capacity: cap,
			entries:  make(map[PageKey]*list.Element),
			lru:      list.New(),
		}
	}
	return p
}

// Stripes returns the number of lock stripes (for tests and diagnostics).
func (p *BufferPool) Stripes() int { return len(p.stripes) }

// stripe maps a key to its owning stripe by FNV-1a hash.
func (p *BufferPool) stripe(key PageKey) *poolStripe {
	if len(p.stripes) == 1 {
		return &p.stripes[0]
	}
	h := uint64(14695981039346656037)
	for i := 0; i < len(key.Table); i++ {
		h ^= uint64(key.Table[i])
		h *= 1099511628211
	}
	h ^= uint64(uint32(key.Page))
	h *= 1099511628211
	return &p.stripes[h%uint64(len(p.stripes))]
}

// disabled reports whether the pool caches at all.
func (p *BufferPool) disabled() bool {
	return len(p.stripes) == 1 && p.stripes[0].capacity <= 0
}

// Get returns the decoded slots for key, loading and decoding via load on a
// miss. The returned slice is shared with the pool; callers must not mutate
// it (the table layer copies rows before handing them to transactions).
func (p *BufferPool) Get(key PageKey, load func() []byte) ([]pageSlot, error) {
	s := p.stripe(key)
	s.mu.Lock()
	if el, ok := s.entries[key]; ok {
		s.lru.MoveToFront(el)
		slots := el.Value.(*poolEntry).slots
		s.mu.Unlock()
		p.hitMiss.IncA()
		return slots, nil
	}
	s.mu.Unlock()

	// Miss: decode outside the stripe mutex so concurrent misses overlap,
	// exactly as concurrent disk reads would.
	p.hitMiss.IncB()
	if p.missLatency > 0 {
		time.Sleep(p.missLatency)
	}
	encoded := load()
	slots, err := decodePage(encoded)
	if err != nil {
		return nil, err
	}

	if s.capacity <= 0 {
		return slots, nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.entries[key]; ok {
		// Raced with another loader; keep the resident copy.
		s.lru.MoveToFront(el)
		return el.Value.(*poolEntry).slots, nil
	}
	el := s.lru.PushFront(&poolEntry{key: key, slots: slots})
	s.entries[key] = el
	p.evictOverflow(s)
	return slots, nil
}

// evictOverflow trims a stripe to its capacity. Called with s.mu held.
func (p *BufferPool) evictOverflow(s *poolStripe) {
	for s.lru.Len() > s.capacity {
		oldest := s.lru.Back()
		s.lru.Remove(oldest)
		delete(s.entries, oldest.Value.(*poolEntry).key)
		p.evictions.Add(1)
	}
}

// Put installs (or replaces) the decoded image of a page, used by the write
// path so that writes keep the cache coherent (write-through).
func (p *BufferPool) Put(key PageKey, slots []pageSlot) {
	s := p.stripe(key)
	if s.capacity <= 0 {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.entries[key]; ok {
		el.Value.(*poolEntry).slots = slots
		s.lru.MoveToFront(el)
		return
	}
	el := s.lru.PushFront(&poolEntry{key: key, slots: slots})
	s.entries[key] = el
	p.evictOverflow(s)
}

// Invalidate drops a page from the pool.
func (p *BufferPool) Invalidate(key PageKey) {
	s := p.stripe(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.entries[key]; ok {
		s.lru.Remove(el)
		delete(s.entries, key)
	}
}

// InvalidateTable drops every cached page of a table (used by DROP TABLE).
func (p *BufferPool) InvalidateTable(table string) {
	for i := range p.stripes {
		s := &p.stripes[i]
		s.mu.Lock()
		for key, el := range s.entries {
			if key.Table == table {
				s.lru.Remove(el)
				delete(s.entries, key)
			}
		}
		s.mu.Unlock()
	}
}

// Clear drops every cached page; the counters are kept.
func (p *BufferPool) Clear() {
	for i := range p.stripes {
		s := &p.stripes[i]
		s.mu.Lock()
		clear(s.entries)
		s.lru.Init()
		s.mu.Unlock()
	}
}

// Len returns the number of resident pages.
func (p *BufferPool) Len() int {
	n := 0
	for i := range p.stripes {
		s := &p.stripes[i]
		s.mu.Lock()
		n += s.lru.Len()
		s.mu.Unlock()
	}
	return n
}

// Stats returns a snapshot of the pool counters. Hits and misses come from
// one atomic word, so the pair is never torn: Hits+Misses is exactly the
// number of accesses recorded at a single instant.
func (p *BufferPool) Stats() PoolStats {
	hits, misses := p.hitMiss.Load()
	return PoolStats{
		Hits:      hits,
		Misses:    misses,
		Evictions: p.evictions.Load(),
	}
}
