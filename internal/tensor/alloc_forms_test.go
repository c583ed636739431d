package tensor

// The allocating forms of the matmul kernels and the explicit transpose:
// production code multiplies into arena-owned outputs only, so these
// exist for the tests, which state properties with them (a·b against the
// naive product, aᵀ·b against MatMul over Transpose, …).

// MatMul returns a·b for an (n×k) a and (k×m) b.
func MatMul(a, b *Matrix) *Matrix {
	out := New(a.Rows, b.Cols)
	MatMulIntoN(a, b, out, 0)
	return out
}

// MatMulTransA returns aᵀ·b for a (k×n) a and (k×m) b.
func MatMulTransA(a, b *Matrix) *Matrix {
	out := New(a.Cols, b.Cols)
	MatMulTransAIntoN(a, b, out, 0)
	return out
}

// MatMulTransB returns a·bᵀ for an (n×k) a and (m×k) b.
func MatMulTransB(a, b *Matrix) *Matrix {
	out := New(a.Rows, b.Rows)
	MatMulTransBIntoN(a, b, out, 0)
	return out
}

// Transpose returns aᵀ.
func Transpose(a *Matrix) *Matrix {
	out := New(a.Cols, a.Rows)
	for i := 0; i < a.Rows; i++ {
		for j, v := range a.Row(i) {
			out.Data[j*a.Rows+i] = v
		}
	}
	return out
}
