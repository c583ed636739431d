package nn

import (
	"fmt"
	"math"

	"h2onas/internal/tensor"
)

// MaskedAttention is multi-head self-attention with fine-grained width
// sharing: the Q/K/V/output projections are MaskedDense slots sized for
// the widest candidate hidden size, and any prefix width can be active.
// Head count scales with the active width (one head per headDim features)
// so the per-head dimension stays hardware-friendly across candidates.
//
// Inputs are flattened sequences: x is (batch·seq)×hidden with Seq set
// before Forward.
type MaskedAttention struct {
	Wq, Wk, Wv, Wo *MaskedDense

	// HeadDim is the per-head feature count (64 by convention).
	HeadDim int

	seq, activeDim int

	arena *tensor.Arena

	// Forward caches for Backward.
	q, k, v *tensor.Matrix
	probs   []*tensor.Matrix // per (batch·head) attention matrices, seq×seq
	ctx     *tensor.Matrix
}

// SetArena threads an arena through the attention slot and its four
// projection layers; all intermediates (including the Forward caches)
// become valid only until the arena's next Release.
func (l *MaskedAttention) SetArena(a *tensor.Arena) {
	l.arena = a
	l.Wq.Arena, l.Wk.Arena, l.Wv.Arena, l.Wo.Arena = a, a, a, a
}

// SetWorkers bounds the parallelism of the four projection layers under
// the owning search's core budget (see internal/sched). The attention
// core (scores, softmax, context) stays serial: its per-(batch, head)
// scratch comes from the single-threaded arena, and its accumulation
// loops interleave reads and read-modify-writes across rows.
func (l *MaskedAttention) SetWorkers(n int) {
	l.Wq.Workers, l.Wk.Workers, l.Wv.Workers, l.Wo.Workers = n, n, n, n
}

// NewMaskedAttention returns an attention slot for up to maxDim hidden
// features.
func NewMaskedAttention(maxDim int, rng *tensor.RNG) *MaskedAttention {
	return &MaskedAttention{
		Wq:        NewMaskedDense(maxDim, maxDim, rng.Split()),
		Wk:        NewMaskedDense(maxDim, maxDim, rng.Split()),
		Wv:        NewMaskedDense(maxDim, maxDim, rng.Split()),
		Wo:        NewMaskedDense(maxDim, maxDim, rng.Split()),
		HeadDim:   64,
		activeDim: maxDim,
	}
}

// SetActive selects the active hidden width and the sequence length of the
// next Forward.
func (l *MaskedAttention) SetActive(dim, seq int) {
	if dim <= 0 || dim > l.Wq.W.Value.Rows {
		panic(fmt.Sprintf("nn: MaskedAttention.SetActive(%d) outside 1..%d", dim, l.Wq.W.Value.Rows))
	}
	if seq <= 0 {
		panic("nn: MaskedAttention sequence length must be positive")
	}
	l.activeDim, l.seq = dim, seq
}

// heads returns the active head count and per-head dim.
func (l *MaskedAttention) heads() (n, dh int) {
	dh = l.HeadDim
	if dh > l.activeDim {
		dh = l.activeDim
	}
	n = l.activeDim / dh
	if n < 1 {
		n = 1
	}
	// Distribute any remainder into the last head.
	return n, dh
}

// Forward computes multi-head self-attention over (batch·seq)×activeDim
// input. Rows are grouped by example: row b·seq+t is example b, position t.
func (l *MaskedAttention) Forward(x *tensor.Matrix) *tensor.Matrix {
	if l.seq == 0 {
		panic("nn: MaskedAttention.Forward before SetActive")
	}
	if x.Cols != l.activeDim {
		panic(fmt.Sprintf("nn: MaskedAttention input width %d != active %d", x.Cols, l.activeDim))
	}
	if x.Rows%l.seq != 0 {
		panic(fmt.Sprintf("nn: MaskedAttention rows %d not divisible by seq %d", x.Rows, l.seq))
	}
	batch := x.Rows / l.seq
	l.Wq.SetActive(l.activeDim, l.activeDim)
	l.Wk.SetActive(l.activeDim, l.activeDim)
	l.Wv.SetActive(l.activeDim, l.activeDim)
	l.Wo.SetActive(l.activeDim, l.activeDim)
	l.q = l.Wq.Forward(x)
	l.k = l.Wk.Forward(x)
	l.v = l.Wv.Forward(x)

	nHeads, dh := l.heads()
	scale := 1 / math.Sqrt(float64(dh))
	l.ctx = l.arena.Get(x.Rows, l.activeDim)
	if cap(l.probs) < batch*nHeads {
		l.probs = make([]*tensor.Matrix, batch*nHeads)
	}
	l.probs = l.probs[:batch*nHeads]
	scores := l.arena.GetNoZero(l.seq, l.seq)

	for b := 0; b < batch; b++ {
		for h := 0; h < nHeads; h++ {
			lo := h * dh
			hi := lo + dh
			if h == nHeads-1 {
				hi = l.activeDim // last head absorbs the remainder
			}
			w := hi - lo
			// Scores: seq×seq.
			for i := 0; i < l.seq; i++ {
				qi := l.q.Row(b*l.seq + i)[lo:hi]
				for j := 0; j < l.seq; j++ {
					kj := l.k.Row(b*l.seq + j)[lo:hi]
					var s float64
					for d := 0; d < w; d++ {
						s += qi[d] * kj[d]
					}
					scores.Set(i, j, s*scale)
				}
			}
			probs := l.arena.GetNoZero(l.seq, l.seq)
			for i := 0; i < l.seq; i++ {
				SoftmaxInto(scores.Row(i), probs.Row(i))
			}
			l.probs[b*nHeads+h] = probs
			// Context: P·V.
			for i := 0; i < l.seq; i++ {
				crow := l.ctx.Row(b*l.seq + i)[lo:hi]
				prow := probs.Row(i)
				for j := 0; j < l.seq; j++ {
					p := prow[j]
					if p == 0 {
						continue
					}
					vrow := l.v.Row(b*l.seq + j)[lo:hi]
					for d := 0; d < w; d++ {
						crow[d] += p * vrow[d]
					}
				}
			}
		}
	}
	return l.Wo.Forward(l.ctx)
}

// Backward propagates through the output projection, the attention core
// (softmax included), and the Q/K/V projections, returning dX.
func (l *MaskedAttention) Backward(grad *tensor.Matrix) *tensor.Matrix {
	if l.ctx == nil {
		panic("nn: MaskedAttention.Backward before Forward")
	}
	checkGrad("MaskedAttention.Backward", grad, l.ctx.Rows, l.activeDim)
	batch := grad.Rows / l.seq
	nHeads, dh := l.heads()
	scale := 1 / math.Sqrt(float64(dh))

	dCtx := l.Wo.Backward(grad)
	dQ := l.arena.Get(grad.Rows, l.activeDim)
	dK := l.arena.Get(grad.Rows, l.activeDim)
	dV := l.arena.Get(grad.Rows, l.activeDim)
	dP := l.arena.GetNoZero(l.seq, l.seq)

	for b := 0; b < batch; b++ {
		for h := 0; h < nHeads; h++ {
			lo := h * dh
			hi := lo + dh
			if h == nHeads-1 {
				hi = l.activeDim
			}
			w := hi - lo
			probs := l.probs[b*nHeads+h]
			// dP[i][j] = dCtx_i · V_j ; dV_j += Σ_i P[i][j]·dCtx_i.
			for i := 0; i < l.seq; i++ {
				dci := dCtx.Row(b*l.seq + i)[lo:hi]
				prow := probs.Row(i)
				dprow := dP.Row(i)
				for j := 0; j < l.seq; j++ {
					vj := l.v.Row(b*l.seq + j)[lo:hi]
					dvj := dV.Row(b*l.seq + j)[lo:hi]
					var s float64
					p := prow[j]
					for d := 0; d < w; d++ {
						s += dci[d] * vj[d]
						dvj[d] += p * dci[d]
					}
					dprow[j] = s
				}
			}
			// Softmax backward per row: dS = P ⊙ (dP − Σ_j dP⊙P).
			for i := 0; i < l.seq; i++ {
				prow := probs.Row(i)
				dprow := dP.Row(i)
				var dot float64
				for j := range prow {
					dot += prow[j] * dprow[j]
				}
				// dS overwrites dP in place.
				for j := range prow {
					dprow[j] = prow[j] * (dprow[j] - dot)
				}
			}
			// dQ_i += Σ_j dS[i][j]·K_j·scale ; dK_j += Σ_i dS[i][j]·Q_i·scale.
			for i := 0; i < l.seq; i++ {
				dsrow := dP.Row(i)
				dqi := dQ.Row(b*l.seq + i)[lo:hi]
				qi := l.q.Row(b*l.seq + i)[lo:hi]
				for j := 0; j < l.seq; j++ {
					ds := dsrow[j] * scale
					if ds == 0 {
						continue
					}
					kj := l.k.Row(b*l.seq + j)[lo:hi]
					dkj := dK.Row(b*l.seq + j)[lo:hi]
					for d := 0; d < w; d++ {
						dqi[d] += ds * kj[d]
						dkj[d] += ds * qi[d]
					}
				}
			}
		}
	}

	dx := l.Wq.Backward(dQ)
	tensor.AddInPlace(dx, l.Wk.Backward(dK))
	tensor.AddInPlace(dx, l.Wv.Backward(dV))
	return dx
}

// Params returns all four projection slots' parameters.
func (l *MaskedAttention) Params() []*Param {
	var out []*Param
	for _, w := range []*MaskedDense{l.Wq, l.Wk, l.Wv, l.Wo} {
		out = append(out, w.Params()...)
	}
	return out
}
