package core

// candidateRing accumulates evaluated candidates with an optional upper
// bound. With max <= 0 it grows without bound (every candidate is kept,
// matching the historical Result.Candidates behaviour); with max > 0 it
// is a ring buffer that retains only the newest max candidates, so
// long searches with large shard counts cannot grow Result.Candidates
// without limit. Items() linearizes the ring back to arrival order.
//
// The same type serves the DLRM and ViT search loops; it is not
// goroutine-safe (candidates are appended on the coordinator only).
type candidateRing struct {
	max     int
	buf     []Candidate
	start   int   // index of the oldest element when wrapped
	dropped int64 // candidates overwritten by newer ones
}

// newCandidateRing returns a ring bounded to max candidates (max <= 0
// means unbounded).
func newCandidateRing(max int) *candidateRing {
	return &candidateRing{max: max}
}

// Add appends c, evicting the oldest candidate when the bound is reached.
func (r *candidateRing) Add(c Candidate) {
	if r.max <= 0 {
		r.buf = append(r.buf, c)
		return
	}
	if len(r.buf) < r.max {
		r.buf = append(r.buf, c)
		return
	}
	r.buf[r.start] = c
	r.start = (r.start + 1) % r.max
	r.dropped++
}

// Len reports how many candidates are currently retained.
func (r *candidateRing) Len() int { return len(r.buf) }

// Items returns the retained candidates in arrival order (oldest first).
// The returned slice is freshly allocated when the ring has wrapped and
// is otherwise the ring's backing storage; callers must not Add afterwards
// if they keep the slice.
func (r *candidateRing) Items() []Candidate {
	if r.start == 0 {
		return r.buf
	}
	out := make([]Candidate, 0, len(r.buf))
	out = append(out, r.buf[r.start:]...)
	out = append(out, r.buf[:r.start]...)
	return out
}
