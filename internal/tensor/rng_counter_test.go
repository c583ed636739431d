package tensor

import (
	"math"
	"testing"
	"testing/quick"
)

// normRef is the eager reference the counter-addressed fill must equal:
// rows×cols calls to Norm, each scaled by std, from a generator at state.
func normRef(rows, cols int, std float64, state uint64) []float64 {
	r := NewRNG(0)
	r.SetState(state)
	out := make([]float64, rows*cols)
	for i := range out {
		out[i] = r.Norm() * std
	}
	return out
}

// bitsEqual fails t at the first element whose bits differ.
func bitsEqual(t *testing.T, what string, got, want []float64) {
	t.Helper()
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: element %d = %v (%#x), want %v (%#x)", what, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

func TestRNGSkipMatchesDraws(t *testing.T) {
	f := func(state uint64, n uint16) bool {
		a, b := NewRNG(0), NewRNG(0)
		a.SetState(state)
		b.SetState(state)
		for i := 0; i < int(n); i++ {
			a.Uint64()
		}
		b.Skip(uint64(n))
		return a.State() == b.State() && a.Uint64() == b.Uint64()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
	// States within a few draws of 2⁶⁴, where the additions wrap.
	g := gamma
	for _, state := range []uint64{math.MaxUint64, math.MaxUint64 - g, math.MaxUint64 - g/2, 0 - 3*g} {
		if !f(state, 7) {
			t.Fatalf("Skip diverges from Uint64 across the wrap at state %#x", state)
		}
	}
	z := ZeroRNG()
	z.Skip(5)
	if z.Uint64() != 0 {
		t.Fatal("Skip turned a ZeroRNG into a live generator")
	}
}

func TestRandNMatchesNormStream(t *testing.T) {
	r := NewRNG(11)
	r.Uint64() // an arbitrary mid-stream start
	start := r.State()
	m := RandN(13, 7, 0.3, r)
	bitsEqual(t, "RandN", m.Data, normRef(13, 7, 0.3, start))
	ref := NewRNG(0)
	ref.SetState(start)
	for i := 0; i < 13*7; i++ {
		ref.Norm()
	}
	if r.State() != ref.State() {
		t.Fatal("RandN left its generator somewhere Norm calls would not")
	}
}

// TestFillNormRowsAnyOrderAnyChunking fills random shapes row by row in
// a random order and in random chunks; both must equal RandN bit for bit.
func TestFillNormRowsAnyOrderAnyChunking(t *testing.T) {
	f := func(seed uint64, rows8, cols8 uint8, std float64) bool {
		rows, cols := int(rows8%40)+1, int(cols8%30)+1
		gen := NewRNG(seed)
		state := gen.State()
		want := RandN(rows, cols, std, gen).Data

		pick := NewRNG(seed ^ 0xabcdef)
		byRow := New(rows, cols)
		for _, r := range pick.PermInto(make([]int, rows)) {
			FillNormRows(byRow, state, std, r, r+1)
		}
		chunked := New(rows, cols)
		for lo := 0; lo < rows; {
			hi := lo + 1 + pick.Intn(rows-lo)
			FillNormRows(chunked, state, std, lo, hi)
			lo = hi
		}
		for i := range want {
			if math.Float64bits(byRow.Data[i]) != math.Float64bits(want[i]) ||
				math.Float64bits(chunked.Data[i]) != math.Float64bits(want[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestDeferRandNZeroRNGIsPlaceholder(t *testing.T) {
	m, _, ok := DeferRandN(4, 3, ZeroRNG())
	if ok || m.Data != nil || m.Rows != 4 || m.Cols != 3 {
		t.Fatalf("DeferRandN on a ZeroRNG = (%dx%d, %d values, ok %v), want a 4x3 placeholder", m.Rows, m.Cols, len(m.Data), ok)
	}
}

// FuzzFillNormRows fills rows [lo, hi) of a zeroed matrix from an
// arbitrary generator state and std: those rows must equal the eager
// Norm stream bit for bit, every other row must stay zero.
func FuzzFillNormRows(f *testing.F) {
	f.Add(uint64(0), uint8(3), uint8(4), uint8(0), uint8(3), 1.0)
	f.Add(uint64(math.MaxUint64), uint8(9), uint8(1), uint8(2), uint8(5), 0.25)
	f.Add(math.MaxUint64-gamma+1, uint8(1), uint8(24), uint8(0), uint8(1), -2.5)
	f.Fuzz(func(t *testing.T, state uint64, rows8, cols8, lo8, hi8 uint8, std float64) {
		rows, cols := int(rows8%48)+1, int(cols8%32)+1
		lo, hi := int(lo8)%(rows+1), int(hi8)%(rows+1)
		if lo > hi {
			lo, hi = hi, lo
		}
		m := New(rows, cols)
		FillNormRows(m, state, std, lo, hi)
		want := normRef(rows, cols, std, state)
		bitsEqual(t, "filled rows", m.Data[lo*cols:hi*cols], want[lo*cols:hi*cols])
		for i, v := range m.Data {
			if (i < lo*cols || i >= hi*cols) && math.Float64bits(v) != 0 {
				t.Fatalf("element %d outside rows [%d, %d) written: %v", i, lo, hi, v)
			}
		}
	})
}
