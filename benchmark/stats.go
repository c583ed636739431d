package main

import (
	"hash/fnv"
	"math"
	"sort"
	"time"

	"h2onas/internal/core"
)

// percentile returns the p-th percentile (0..100) of v by linear
// interpolation between the two nearest ranks; 0 for an empty slice. v is
// not modified.
func percentile(v []float64, p float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if p <= 0 {
		return s[0]
	}
	if p >= 100 {
		return s[len(s)-1]
	}
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	frac := pos - float64(lo)
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(v []float64) float64 { return percentile(v, 50) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// ratio is a/b, or 0 when the base is 0 (a layer that did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// trajectoryDigest is FNV-64a over the exact bits of every StepInfo: two
// searches share a digest exactly when their telemetry trajectories are
// bit-identical.
func trajectoryDigest(history []core.StepInfo) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(u uint64) {
		for i := range buf {
			buf[i] = byte(u >> (8 * i))
		}
		h.Write(buf[:])
	}
	for _, s := range history {
		put(uint64(s.Step))
		put(math.Float64bits(s.MeanReward))
		put(math.Float64bits(s.MeanQ))
		put(math.Float64bits(s.Entropy))
		put(math.Float64bits(s.Confidence))
	}
	return h.Sum64()
}

// historyFinite reports whether every telemetry value of the trajectory is
// a finite number.
func historyFinite(history []core.StepInfo) bool {
	for _, s := range history {
		for _, v := range [...]float64{s.MeanReward, s.MeanQ, s.Entropy, s.Confidence} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return false
			}
		}
	}
	return true
}

// mixSeed derives the seed of round r from the run seed, so one --seed
// fixes every input of the run and no two rounds share a stream.
func mixSeed(seed uint64, r int) uint64 { return seed*1_000_003 + uint64(r) + 1 }

// timeCalls measures fn by calling it in batches until budget is spent and
// returns the median time of one call. batch is how many calls one timed
// sample covers: 1 for calls of a millisecond or more, larger for short
// calls so the clock's own cost (tens of ns) stays out of the number.
func timeCalls(budget time.Duration, batch int, fn func()) time.Duration {
	fn() // first call fills pools and lazily built buffers
	var samples []float64
	deadline := time.Now().Add(budget)
	for len(samples) < 5 || time.Now().Before(deadline) {
		t0 := time.Now()
		for i := 0; i < batch; i++ {
			fn()
		}
		samples = append(samples, float64(time.Since(t0))/float64(batch))
	}
	return time.Duration(median(samples))
}
