package core

import (
	"container/list"
	"encoding/binary"
	"sync"

	"h2onas/internal/metrics"
	"h2onas/internal/space"
)

// perfCacheSize is the LRU capacity of a search's memoized PerfFunc. The
// policy resamples the same high-probability candidates more and more
// often as it converges, so even a modest cache absorbs most of the
// per-step performance-model evaluations late in a search.
const perfCacheSize = 4096

// memoizedPerf wraps a PerfFunc with an assignment-keyed LRU cache. The
// search loop evaluates T(α) for every sampled candidate every step; as
// the policy sharpens, the same assignments recur and the (deterministic)
// performance model or analytic cost function is pure, so its results can
// be reused. Hits and misses are exported as perf_cache_hits_total and
// perf_cache_misses_total.
//
// Eval returns the cached slice itself, not a copy — callers must treat
// the result as read-only (the search loop only reads it, and so must any
// user-provided reward function).
//
// memoizedPerf is safe for concurrent use.
type memoizedPerf struct {
	fn  PerfFunc
	cap int

	mu    sync.Mutex
	items map[string]*list.Element
	order *list.List // front = most recently used

	hits   *metrics.Counter
	misses *metrics.Counter
}

type perfEntry struct {
	key  string
	perf []float64
}

// newMemoizedPerf wraps fn in an LRU of the given capacity. Metrics are
// resolved from r (nil-safe).
func newMemoizedPerf(fn PerfFunc, capacity int, r *metrics.Registry) *memoizedPerf {
	return &memoizedPerf{
		fn:     fn,
		cap:    capacity,
		items:  make(map[string]*list.Element, capacity),
		order:  list.New(),
		hits:   r.Counter("perf_cache_hits_total"),
		misses: r.Counter("perf_cache_misses_total"),
	}
}

// perfKey encodes an assignment as a compact string key. Decision indices
// are small, but 16 bits each keeps the encoding safe for any realistic
// arity without variable-length framing.
func perfKey(a space.Assignment) string {
	buf := make([]byte, 2*len(a))
	for i, v := range a {
		binary.LittleEndian.PutUint16(buf[2*i:], uint16(v))
	}
	return string(buf)
}

// Eval returns fn(a), memoized. The returned slice is shared with the
// cache: read-only.
func (m *memoizedPerf) Eval(a space.Assignment) []float64 {
	key := perfKey(a)
	m.mu.Lock()
	if el, ok := m.items[key]; ok {
		m.order.MoveToFront(el)
		perf := el.Value.(*perfEntry).perf
		m.mu.Unlock()
		m.hits.Inc()
		return perf
	}
	m.mu.Unlock()

	// Compute outside the lock: PerfFunc may be expensive (a performance
	// model forward pass), and concurrent Evals of distinct assignments
	// should not serialize on it. A racing duplicate computation of the
	// same key is wasted work but harmless — the function is pure.
	m.misses.Inc()
	perf := m.fn(a)

	m.mu.Lock()
	if el, ok := m.items[key]; ok {
		// Lost a race with another Eval of the same key; keep the first.
		m.order.MoveToFront(el)
		perf = el.Value.(*perfEntry).perf
	} else {
		m.items[key] = m.order.PushFront(&perfEntry{key: key, perf: perf})
		for m.order.Len() > m.cap {
			oldest := m.order.Back()
			m.order.Remove(oldest)
			delete(m.items, oldest.Value.(*perfEntry).key)
		}
	}
	m.mu.Unlock()
	return perf
}

// Len reports the number of cached assignments.
func (m *memoizedPerf) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.order.Len()
}
