package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. Spans are recorded from
// the benchmark's own wrappers around each layer's public functions, kept
// in memory, and written out once when the run ends.
type span struct {
	Name string
	// Start and End are offsets from the tracer's epoch.
	Start, End time.Duration
	// Parent is the index of the span that caused this one, -1 for a root.
	Parent int
	// Op is the search step or job the span belongs to, -1 when none.
	Op int
	// Lane separates goroutines in the trace viewer: 0 is the coordinator
	// (or client 0), shard and client workers take 1+index.
	Lane int
	// Structural spans (round, search, step, job) only group their
	// children: their self time is time no layer span accounts for.
	Structural bool
}

// tracer collects spans. One mutex serialises appends: a step records a
// few dozen spans against milliseconds of work, so contention is nil.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

// newTracer reserves room for a traced window's spans up front (the
// analytic loop records some 50 000), so recording never stops to grow the
// slice inside a step it is timing.
func newTracer() *tracer { return &tracer{epoch: time.Now(), spans: make([]span, 0, 1<<17)} }

// add records a finished span and returns its index.
func (t *tracer) add(name string, start, end time.Time, parent, op, lane int) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: start.Sub(t.epoch), End: end.Sub(t.epoch), Parent: parent, Op: op, Lane: lane})
	return len(t.spans) - 1
}

// begin opens a span whose children need its index while it runs; finish
// closes it.
func (t *tracer) begin(name string, start time.Time, parent, op, lane int, structural bool) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	off := start.Sub(t.epoch)
	t.spans = append(t.spans, span{Name: name, Start: off, End: off, Parent: parent, Op: op, Lane: lane, Structural: structural})
	return len(t.spans) - 1
}

func (t *tracer) finish(id int, end time.Time) {
	t.mu.Lock()
	t.spans[id].End = end.Sub(t.epoch)
	t.mu.Unlock()
}

// durations returns the length in milliseconds of every span called name.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, ms(s.End-s.Start))
		}
	}
	return out
}

// perParent sums, for every span called parentName, the lengths of its
// direct children called childName (0 for a parent without one), in
// milliseconds — "sampling time per step" from many short sample spans.
func (t *tracer) perParent(parentName, childName string) []float64 {
	idx := map[int]int{}
	var out []float64
	for i, s := range t.spans {
		if s.Name == parentName {
			idx[i] = len(out)
			out = append(out, 0)
		}
	}
	for _, s := range t.spans {
		if s.Name != childName {
			continue
		}
		if k, ok := idx[s.Parent]; ok {
			out[k] += ms(s.End - s.Start)
		}
	}
	return out
}

// selfTimes returns each span's self time: its length minus the part of
// that interval its direct children cover. Children running in parallel
// (the shards of a fan-out) cover their union once.
func (t *tracer) selfTimes() []time.Duration {
	children := make([][]int, len(t.spans))
	for i, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]time.Duration, len(t.spans))
	for i, s := range t.spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return t.spans[kids[a]].Start < t.spans[kids[b]].Start })
		covered, edge := time.Duration(0), s.Start
		for _, k := range kids {
			lo, hi := t.spans[k].Start, t.spans[k].End
			if lo < edge {
				lo = edge
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[i] = s.End - s.Start - covered
	}
	return self
}

// selfOf returns the self times, in milliseconds, of the spans called name.
func (t *tracer) selfOf(name string) []float64 {
	self := t.selfTimes()
	var out []float64
	for i, s := range t.spans {
		if s.Name == name {
			out = append(out, ms(self[i]))
		}
	}
	return out
}

// unattributedShare is the share of the traced roots' time that no layer
// span accounts for: the self time of the structural spans.
func (t *tracer) unattributedShare() float64 {
	self := t.selfTimes()
	var loose, total time.Duration
	for i, s := range t.spans {
		if s.Structural {
			loose += self[i]
		}
		if s.Parent < 0 {
			total += s.End - s.Start
		}
	}
	return ratio(float64(loose), float64(total))
}

// writeChrome writes the spans as Chrome-trace JSON (chrome://tracing,
// Perfetto): complete events with microsecond timestamps.
func (t *tracer) writeChrome(path string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	events := make([]event, len(t.spans))
	for i, s := range t.spans {
		events[i] = event{
			Name: s.Name, Ph: "X", Ts: us(s.Start), Dur: us(s.End - s.Start), Pid: 1, Tid: s.Lane,
			Args: map[string]int{"id": i, "parent": s.Parent, "op": s.Op},
		}
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
