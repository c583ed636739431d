package tensor

import "math"

// RNG is a small, deterministic SplitMix64-based random number generator.
//
// The search algorithm, the super-network initialization, and the synthetic
// data pipeline all need independent, seedable, reproducible randomness on
// many goroutines at once; math/rand's global source is locked and its
// seeding across Go versions is awkward for that, so the project carries
// its own generator. SplitMix64 passes BigCrush and splits cheaply.
type RNG struct {
	state uint64
	zero  bool
}

// NewRNG returns a generator seeded with seed.
func NewRNG(seed uint64) *RNG { return &RNG{state: seed} }

// ZeroRNG returns a degenerate generator whose every draw is zero and
// whose Split returns another such generator. Structural constructors
// pass it when a tensor's initial values are irrelevant — e.g. Replicate
// overwrites every replica weight with shared master storage, so the
// Box–Muller work of a real initialization would be thrown away.
//
// RandN and GlorotUniform go further for a ZeroRNG: they return a
// shape-only placeholder whose Data is nil, skipping the allocation too.
// Any read of such a matrix before its storage is replaced panics, which
// is deliberate — it catches a structural clone being used as a network.
func ZeroRNG() *RNG { return &RNG{zero: true} }

// State returns the generator's complete internal state. Together with
// SetState it makes RNG streams checkpointable: a generator restored to a
// saved state produces exactly the sequence the original would have.
func (r *RNG) State() uint64 { return r.state }

// SetState restores a state previously captured with State, discarding
// the generator's current position in its stream.
func (r *RNG) SetState(state uint64) { r.state = state }

// gamma is SplitMix64's state increment: draw k of a generator whose
// state is s is mix(s + k·gamma), so any draw is addressable in O(1).
const gamma uint64 = 0x9e3779b97f4a7c15

// Split returns a new independent generator derived from r's stream,
// advancing r. Derived generators are safe to hand to other goroutines.
func (r *RNG) Split() *RNG {
	if r.zero {
		return &RNG{zero: true}
	}
	return &RNG{state: r.Uint64() ^ gamma}
}

// Uint64 returns the next 64 uniformly random bits (always 0 for ZeroRNG).
func (r *RNG) Uint64() uint64 {
	if r.zero {
		return 0
	}
	r.state += gamma
	return mix(r.state)
}

// Skip advances the generator past n draws in O(1), leaving it exactly
// where n calls to Uint64 would (the state wraps mod 2⁶⁴ either way).
func (r *RNG) Skip(n uint64) {
	if !r.zero {
		r.state += n * gamma
	}
}

// mix is SplitMix64's output function.
func mix(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// unit maps 64 random bits to a uniform float64 in [0,1).
func unit(x uint64) float64 { return float64(x>>11) / (1 << 53) }

// Float64 returns a uniform float64 in [0,1).
func (r *RNG) Float64() float64 { return unit(r.Uint64()) }

// Intn returns a uniform int in [0,n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("tensor: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Norm returns a standard-normal sample (Box–Muller). It takes exactly
// two draws.
func (r *RNG) Norm() float64 {
	a := r.Uint64()
	return boxMuller(a, r.Uint64())
}

// boxMuller is the rejection-free Box–Muller transform of two draws;
// u1 lies in (0,1], so the logarithm is finite.
func boxMuller(a, b uint64) float64 {
	u1 := 1 - unit(a)
	u2 := unit(b)
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}

// PermInto fills p with a random permutation of [0,len(p)) and returns
// it.
func (r *RNG) PermInto(p []int) []int {
	for i := range p {
		p[i] = i
	}
	for i := len(p) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Categorical samples an index from the (unnormalized, non-negative)
// weights. It panics if the total weight is not positive.
func (r *RNG) Categorical(weights []float64) int {
	var total float64
	for _, w := range weights {
		total += w
	}
	if total <= 0 {
		panic("tensor: Categorical with non-positive total weight")
	}
	x := r.Float64() * total
	for i, w := range weights {
		x -= w
		if x < 0 {
			return i
		}
	}
	return len(weights) - 1
}

// RandN fills a rows×cols matrix with N(0, std²) samples. For a ZeroRNG
// it returns an unallocated shape-only placeholder — see ZeroRNG.
func RandN(rows, cols int, std float64, r *RNG) *Matrix {
	m, state, ok := DeferRandN(rows, cols, r)
	if ok {
		FillNormRows(m, state, std, 0, rows)
	}
	return m
}

// DeferRandN is RandN with the fill left to the caller: it returns the
// matrix zeroed, with r's state before the draws, and advances r past
// every draw RandN takes. FillNormRows(m, state, std, lo, hi) then
// writes any rows exactly as RandN would have. For a ZeroRNG it returns
// RandN's placeholder and ok false.
func DeferRandN(rows, cols int, r *RNG) (m *Matrix, state uint64, ok bool) {
	if r.zero {
		return &Matrix{Rows: rows, Cols: cols}, 0, false
	}
	m, state = New(rows, cols), r.state
	r.Skip(2 * uint64(rows*cols))
	return m, state, true
}

// FillNormRows writes rows [lo, hi) of m with exactly the bits
// RandN(m.Rows, m.Cols, std, r) gives them when r's state is state.
// Element i of such a matrix is r.Norm()·std over draws 2i+1 and 2i+2
// of r's stream, a pure function of (state, i), so rows can be filled
// in any order, in any chunks and on any goroutine: concurrent calls on
// disjoint row ranges write disjoint memory.
func FillNormRows(m *Matrix, state uint64, std float64, lo, hi int) {
	cols := m.Cols
	s := state + 2*uint64(lo*cols)*gamma
	for i := lo * cols; i < hi*cols; i++ {
		s += gamma
		a := mix(s)
		s += gamma
		m.Data[i] = boxMuller(a, mix(s)) * std
	}
}

// GlorotUniform fills a fanIn×fanOut matrix with the Glorot/Xavier uniform
// initialization, the default for dense layers. For a ZeroRNG it returns
// an unallocated shape-only placeholder — see ZeroRNG.
func GlorotUniform(fanIn, fanOut int, r *RNG) *Matrix {
	if r.zero {
		return &Matrix{Rows: fanIn, Cols: fanOut}
	}
	m := New(fanIn, fanOut)
	limit := math.Sqrt(6 / float64(fanIn+fanOut))
	for i := range m.Data {
		m.Data[i] = (2*r.Float64() - 1) * limit
	}
	return m
}
