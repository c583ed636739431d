// Package metrics is the search-loop observability layer: goroutine-safe
// counters, gauges, log-bucketed histograms with quantile summaries, and
// lightweight span timers, designed for the hot paths of the massively
// parallel unified single-step search (Section 4) — per-shard step timing,
// reward/entropy/KL trends, data-pipeline latency and buffer occupancy,
// simulator-call and performance-model-inference latency.
//
// Two properties shape the API:
//
//   - Allocation-lean hot path. Instruments are resolved once (by name)
//     and then updated with a single atomic operation; Observe, Inc, Add
//     and Set never allocate, and Span timers are value types.
//   - Free when disabled. Nop() returns a nil *Registry; every method on
//     a nil registry or nil instrument is a no-op, so the zero-config
//     path costs one predictable nil check and Span on a nil histogram
//     never even reads the clock. Callers hold plain *Counter /
//     *Histogram fields and need no "is metrics enabled" branches.
//
// A Registry renders three ways: Snapshot (JSON-ready structs),
// WritePrometheus (Prometheus text exposition), and Summary (a human
// text table for end-of-run reports).
package metrics

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Registry is a namespace of instruments. The zero value is not usable;
// call New. A nil *Registry is the nop registry: all lookups return nil
// instruments whose methods do nothing.
type Registry struct {
	mu       sync.RWMutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// New returns an empty registry.
func New() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Nop returns the no-op registry: a nil pointer whose method set is fully
// usable and free. Instruments obtained from it are nil and also no-ops.
func Nop() *Registry { return nil }

// Enabled reports whether the registry records anything. It is the guard
// for metric computations that are themselves costly (e.g. KL divergence)
// and should be skipped entirely when observability is off.
func (r *Registry) Enabled() bool { return r != nil }

// Counter returns the counter with the given name, creating it on first
// use. Returns nil (a no-op counter) on the nop registry.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	c := r.counters[name]
	r.mu.RUnlock()
	if c != nil {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c = r.counters[name]; c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the gauge with the given name, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	g := r.gauges[name]
	r.mu.RUnlock()
	if g != nil {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g = r.gauges[name]; g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the histogram with the given name, creating it on
// first use.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	h := r.hists[name]
	r.mu.RUnlock()
	if h != nil {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h = r.hists[name]; h == nil {
		h = newHistogram()
		r.hists[name] = h
	}
	return h
}

// sortedNames returns the keys of m in sorted order.
func sortedNames[T any](m map[string]T) []string {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

// Counter is a monotonically increasing integer. All methods are safe for
// concurrent use and safe on a nil receiver (no-ops).
type Counter struct{ v atomic.Int64 }

// Inc adds 1.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n (n must be ≥ 0 for Prometheus semantics; negative deltas are
// not rejected but make the exposition non-monotonic).
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count (0 on nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an instantaneous float64 value. All methods are safe for
// concurrent use and safe on a nil receiver.
type Gauge struct{ bits atomic.Uint64 }

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// Add atomically adds delta to the gauge.
func (g *Gauge) Add(delta float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current value (0 on nil).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}
