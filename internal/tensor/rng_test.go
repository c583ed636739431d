package tensor

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed must give same stream")
		}
	}
}

func TestRNGSplitIndependence(t *testing.T) {
	r := NewRNG(7)
	s := r.Split()
	// The split stream should differ from the parent's continuation.
	same := 0
	for i := 0; i < 64; i++ {
		if r.Uint64() == s.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("split stream collides with parent %d/64 times", same)
	}
}

func TestFloat64Range(t *testing.T) {
	r := NewRNG(1)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %v", v)
		}
	}
}

func TestIntnRangeProperty(t *testing.T) {
	f := func(seed uint64, n8 uint8) bool {
		n := int(n8%100) + 1
		r := NewRNG(seed)
		for i := 0; i < 50; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestNormMoments(t *testing.T) {
	r := NewRNG(3)
	const n = 200000
	var sum, sumsq float64
	for i := 0; i < n; i++ {
		v := r.Norm()
		sum += v
		sumsq += v * v
	}
	mean := sum / n
	variance := sumsq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Errorf("Norm mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.02 {
		t.Errorf("Norm variance = %v, want ~1", variance)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := NewRNG(9)
	p := r.PermInto(make([]int, 50))
	seen := make([]bool, 50)
	for _, v := range p {
		if v < 0 || v >= 50 || seen[v] {
			t.Fatalf("not a permutation: %v", p)
		}
		seen[v] = true
	}
}

func TestCategoricalRespectsWeights(t *testing.T) {
	r := NewRNG(5)
	weights := []float64{0, 0, 1, 0}
	for i := 0; i < 100; i++ {
		if got := r.Categorical(weights); got != 2 {
			t.Fatalf("Categorical with point mass = %d, want 2", got)
		}
	}
	// Statistical check on a 1:3 split.
	counts := [2]int{}
	weights = []float64{1, 3}
	const n = 40000
	for i := 0; i < n; i++ {
		counts[r.Categorical(weights)]++
	}
	frac := float64(counts[1]) / n
	if math.Abs(frac-0.75) > 0.02 {
		t.Errorf("Categorical frequency = %v, want ~0.75", frac)
	}
}

func TestCategoricalPanicsOnZeroTotal(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewRNG(1).Categorical([]float64{0, 0})
}

func TestRandNShapeAndSpread(t *testing.T) {
	r := NewRNG(2)
	m := RandN(20, 30, 0.5, r)
	if m.Rows != 20 || m.Cols != 30 {
		t.Fatalf("shape = %dx%d", m.Rows, m.Cols)
	}
	var sumsq float64
	for _, v := range m.Data {
		sumsq += v * v
	}
	std := math.Sqrt(sumsq / float64(len(m.Data)))
	if math.Abs(std-0.5) > 0.05 {
		t.Errorf("RandN std = %v, want ~0.5", std)
	}
}

func TestGlorotUniformBounds(t *testing.T) {
	r := NewRNG(4)
	fanIn, fanOut := 64, 32
	limit := math.Sqrt(6 / float64(fanIn+fanOut))
	m := GlorotUniform(fanIn, fanOut, r)
	for _, v := range m.Data {
		if v < -limit || v > limit {
			t.Fatalf("Glorot sample %v outside ±%v", v, limit)
		}
	}
}
