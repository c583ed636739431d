//go:build !amd64 || race

package tensor

// No assembly backend: the inner kernels are the scalar reference loops
// (kernels_generic.go), and the one-line dispatchers inline away. This is
// every non-amd64 target, and every race build — the detector cannot see
// stores made by assembly, so under -race the instrumented Go loops must
// run. Results are bit-identical to the AVX2 backend either way.

func axpyUnrolled(dst []float64, s float64, src []float64) { axpyGeneric(dst, s, src) }

func dotUnrolled(a, b []float64) float64 { return dotGeneric(a, b) }

func affineRow(y, x, w []float64, ws int) { affineRowGeneric(y, x, w, ws) }

func affineGradRow(gw, w, g []float64, gs int, x, dx []float64, xs, rows int, reluInput bool) {
	affineGradRowGeneric(gw, w, g, gs, x, dx, xs, rows, reluInput)
}

func adamRow(p, m, v, g []float64, scale, b1, b2, lr, eps, c1, c2 float64) {
	adamRowGeneric(p, m, v, g, scale, b1, b2, lr, eps, c1, c2)
}

// KernelBackend names the inner-kernel backend this process runs:
// "scalar", the reference loops.
func KernelBackend() string { return "scalar" }
