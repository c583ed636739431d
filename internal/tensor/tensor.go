// Package tensor provides dense float64 matrices and vectors with the
// linear-algebra kernels the rest of the system is built on: the
// bit-exact row kernels every dense layer runs on (AVX2 on amd64, a
// scalar reference elsewhere), a shared worker pool, region arenas,
// elementwise maps, reductions, and deterministic random initialization.
//
// The package is deliberately small: it implements exactly what the
// neural-network substrate (internal/nn), the performance model
// (internal/perfmodel), and the DLRM super-network (internal/supernet)
// need, with no external dependencies.
package tensor

import "fmt"

// Matrix is a dense, row-major float64 matrix. The zero value is an empty
// matrix; use New to create one with a shape.
type Matrix struct {
	Rows, Cols int
	Data       []float64 // len == Rows*Cols, row-major
}

// New returns a zero-filled rows×cols matrix.
func New(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("tensor: negative dimensions %dx%d", rows, cols))
	}
	matrixAllocs.Add(1)
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// At returns the element at row i, column j.
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns the element at row i, column j.
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Row returns the i-th row as a slice aliasing the matrix storage.
func (m *Matrix) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Zero sets every element of m to zero in place.
func (m *Matrix) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// Fill sets every element of m to v in place.
func (m *Matrix) Fill(v float64) {
	for i := range m.Data {
		m.Data[i] = v
	}
}

// String renders small matrices fully and large ones as a shape summary.
func (m *Matrix) String() string {
	if m.Rows*m.Cols > 64 {
		return fmt.Sprintf("Matrix(%dx%d)", m.Rows, m.Cols)
	}
	s := fmt.Sprintf("Matrix(%dx%d)[", m.Rows, m.Cols)
	for i := 0; i < m.Rows; i++ {
		if i > 0 {
			s += "; "
		}
		for j := 0; j < m.Cols; j++ {
			if j > 0 {
				s += " "
			}
			s += fmt.Sprintf("%.4g", m.At(i, j))
		}
	}
	return s + "]"
}

// sameShape panics unless a and b have identical shapes.
func sameShape(op string, a, b *Matrix) {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: %s shape mismatch %dx%d vs %dx%d", op, a.Rows, a.Cols, b.Rows, b.Cols))
	}
}

// Add returns a+b elementwise.
func Add(a, b *Matrix) *Matrix {
	sameShape("Add", a, b)
	out := New(a.Rows, a.Cols)
	for i := range a.Data {
		out.Data[i] = a.Data[i] + b.Data[i]
	}
	return out
}

// AddInto computes a+b elementwise into out (which may alias a or b).
func AddInto(a, b, out *Matrix) {
	sameShape("AddInto", a, b)
	sameShape("AddInto", a, out)
	for i := range a.Data {
		out.Data[i] = a.Data[i] + b.Data[i]
	}
}

// AddInPlace adds b into a elementwise and returns a.
func AddInPlace(a, b *Matrix) *Matrix {
	sameShape("AddInPlace", a, b)
	for i := range a.Data {
		a.Data[i] += b.Data[i]
	}
	return a
}

// AXPY computes a += s·b in place.
func AXPY(a *Matrix, s float64, b *Matrix) {
	sameShape("AXPY", a, b)
	for i := range a.Data {
		a.Data[i] += s * b.Data[i]
	}
}

// AddRowVector adds the 1×m row vector v to every row of a, in place.
func AddRowVector(a *Matrix, v *Matrix) {
	if v.Rows != 1 || v.Cols != a.Cols {
		panic(fmt.Sprintf("tensor: AddRowVector shape mismatch %dx%d vs %dx%d", a.Rows, a.Cols, v.Rows, v.Cols))
	}
	for i := 0; i < a.Rows; i++ {
		row := a.Row(i)
		for j := range row {
			row[j] += v.Data[j]
		}
	}
}
