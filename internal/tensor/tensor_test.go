package tensor

import (
	"testing"
	"testing/quick"
)

func TestNewShapeAndZero(t *testing.T) {
	m := New(3, 4)
	if m.Rows != 3 || m.Cols != 4 || len(m.Data) != 12 {
		t.Fatalf("New(3, 4) is %dx%d over %d elements", m.Rows, m.Cols, len(m.Data))
	}
	for i, v := range m.Data {
		if v != 0 {
			t.Fatalf("Data[%d] = %v, want 0", i, v)
		}
	}
}

func TestNewFromDataPanicsOnBadLength(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for mismatched data length")
		}
	}()
	NewFromData(2, 3, []float64{1, 2, 3})
}

func TestAtSetRow(t *testing.T) {
	m := New(2, 3)
	m.Set(1, 2, 7.5)
	if got := m.At(1, 2); got != 7.5 {
		t.Fatalf("At(1,2) = %v, want 7.5", got)
	}
	row := m.Row(1)
	if row[2] != 7.5 {
		t.Fatalf("Row(1)[2] = %v, want 7.5", row[2])
	}
	row[0] = 3 // Row aliases storage.
	if m.At(1, 0) != 3 {
		t.Fatal("Row must alias matrix storage")
	}
}

func TestCloneIsDeep(t *testing.T) {
	m := NewFromData(1, 2, []float64{1, 2})
	c := m.Clone()
	c.Data[0] = 99
	if m.Data[0] != 1 {
		t.Fatal("Clone must not share storage")
	}
}

func TestElementwiseOps(t *testing.T) {
	a := NewFromData(2, 2, []float64{1, 2, 3, 4})
	b := NewFromData(2, 2, []float64{10, 20, 30, 40})
	if got := Add(a, b); !Equal(got, NewFromData(2, 2, []float64{11, 22, 33, 44}), 0) {
		t.Errorf("Add = %v", got)
	}
}

func TestAXPY(t *testing.T) {
	a := NewFromData(1, 3, []float64{1, 2, 3})
	b := NewFromData(1, 3, []float64{10, 10, 10})
	AXPY(a, 0.5, b)
	if !Equal(a, NewFromData(1, 3, []float64{6, 7, 8}), 1e-12) {
		t.Fatalf("AXPY = %v", a)
	}
}

func TestShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for shape mismatch")
		}
	}()
	Add(New(2, 2), New(2, 3))
}

func TestTranspose(t *testing.T) {
	a := NewFromData(2, 3, []float64{1, 2, 3, 4, 5, 6})
	at := Transpose(a)
	want := NewFromData(3, 2, []float64{1, 4, 2, 5, 3, 6})
	if !Equal(at, want, 0) {
		t.Fatalf("Transpose = %v, want %v", at, want)
	}
}

func TestReductions(t *testing.T) {
	a := NewFromData(2, 3, []float64{1, -2, 3, 4, 5, -6})
	if got := MaxAbs(a); got != 6 {
		t.Errorf("MaxAbs = %v, want 6", got)
	}
}

func TestAddRowVector(t *testing.T) {
	a := New(2, 3)
	v := NewFromData(1, 3, []float64{1, 2, 3})
	AddRowVector(a, v)
	AddRowVector(a, v)
	want := NewFromData(2, 3, []float64{2, 4, 6, 2, 4, 6})
	if !Equal(a, want, 0) {
		t.Fatalf("AddRowVector = %v", a)
	}
}

func TestMatMulSmall(t *testing.T) {
	a := NewFromData(2, 3, []float64{1, 2, 3, 4, 5, 6})
	b := NewFromData(3, 2, []float64{7, 8, 9, 10, 11, 12})
	got := MatMul(a, b)
	want := NewFromData(2, 2, []float64{58, 64, 139, 154})
	if !Equal(got, want, 1e-12) {
		t.Fatalf("MatMul = %v, want %v", got, want)
	}
}

func TestMatMulIdentity(t *testing.T) {
	r := NewRNG(1)
	a := RandN(5, 5, 1, r)
	id := New(5, 5)
	for i := 0; i < 5; i++ {
		id.Set(i, i, 1)
	}
	if got := MatMul(a, id); !Equal(got, a, 1e-12) {
		t.Fatal("A·I != A")
	}
	if got := MatMul(id, a); !Equal(got, a, 1e-12) {
		t.Fatal("I·A != A")
	}
}

// naiveMatMul is the reference implementation used by the property tests.
func naiveMatMul(a, b *Matrix) *Matrix {
	out := New(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Cols; j++ {
			var s float64
			for k := 0; k < a.Cols; k++ {
				s += a.At(i, k) * b.At(k, j)
			}
			out.Set(i, j, s)
		}
	}
	return out
}

func randomPair(seed uint64, n, k, m int) (*Matrix, *Matrix) {
	r := NewRNG(seed)
	return RandN(n, k, 1, r), RandN(k, m, 1, r)
}

func TestMatMulMatchesNaiveProperty(t *testing.T) {
	f := func(seed uint64, n8, k8, m8 uint8) bool {
		n, k, m := int(n8%16)+1, int(k8%16)+1, int(m8%16)+1
		a, b := randomPair(seed, n, k, m)
		return Equal(MatMul(a, b), naiveMatMul(a, b), 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestMatMulTransAMatchesExplicitTranspose(t *testing.T) {
	f := func(seed uint64, n8, k8, m8 uint8) bool {
		n, k, m := int(n8%12)+1, int(k8%12)+1, int(m8%12)+1
		r := NewRNG(seed)
		a := RandN(k, n, 1, r)
		b := RandN(k, m, 1, r)
		return Equal(MatMulTransA(a, b), MatMul(Transpose(a), b), 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestMatMulTransBMatchesExplicitTranspose(t *testing.T) {
	f := func(seed uint64, n8, k8, m8 uint8) bool {
		n, k, m := int(n8%12)+1, int(k8%12)+1, int(m8%12)+1
		r := NewRNG(seed)
		a := RandN(n, k, 1, r)
		b := RandN(m, k, 1, r)
		return Equal(MatMulTransB(a, b), MatMul(a, Transpose(b)), 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestMatMulParallelPathMatchesNaive(t *testing.T) {
	// Big enough to cross parallelThreshold.
	a, b := randomPair(7, 96, 80, 96)
	if !Equal(MatMul(a, b), naiveMatMul(a, b), 1e-8) {
		t.Fatal("parallel MatMul disagrees with naive result")
	}
}

func TestMatMulTransParallelPaths(t *testing.T) {
	r := NewRNG(11)
	a := RandN(90, 70, 1, r)
	b := RandN(90, 85, 1, r)
	if !Equal(MatMulTransA(a, b), MatMul(Transpose(a), b), 1e-8) {
		t.Fatal("parallel MatMulTransA disagrees")
	}
	c := RandN(90, 70, 1, r)
	d := RandN(85, 70, 1, r)
	if !Equal(MatMulTransB(c, d), MatMul(c, Transpose(d)), 1e-8) {
		t.Fatal("parallel MatMulTransB disagrees")
	}
}

func TestMatMulDimPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for inner dim mismatch")
		}
	}()
	MatMul(New(2, 3), New(4, 2))
}

func TestMatMulAssociativityProperty(t *testing.T) {
	// (A·B)·C == A·(B·C) within float tolerance.
	f := func(seed uint64) bool {
		r := NewRNG(seed)
		a := RandN(4, 5, 1, r)
		b := RandN(5, 6, 1, r)
		c := RandN(6, 3, 1, r)
		return Equal(MatMul(MatMul(a, b), c), MatMul(a, MatMul(b, c)), 1e-8)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestMatMulDistributivityProperty(t *testing.T) {
	// A·(B+C) == A·B + A·C.
	f := func(seed uint64) bool {
		r := NewRNG(seed)
		a := RandN(4, 5, 1, r)
		b := RandN(5, 6, 1, r)
		c := RandN(5, 6, 1, r)
		return Equal(MatMul(a, Add(b, c)), Add(MatMul(a, b), MatMul(a, c)), 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
