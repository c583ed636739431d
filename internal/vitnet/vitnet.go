// Package vitnet implements the weight-sharing super-network for the pure
// transformer search space (Table 5, Appendix A): token and positional
// embeddings with fine-grained width sharing, per-layer attention and FFN
// slots whose hidden size is masked to any searchable width, shared
// low-rank FFN factors for the rank sweep, searchable activations and
// sequence pooling, and a depth sweep over per-layer slots — the
// transformer counterpart of the DLRM super-network, enabling one-shot
// searches for "pure VIT or transformer based NLP models".
//
// The Primer decision (channel-wise depth convolutions) affects the
// performance graph only; in the trainable super-network it is a no-op,
// as its quality effect is below this substrate's resolution.
package vitnet

import (
	"fmt"
	"math"

	"h2onas/internal/datapipe"
	"h2onas/internal/nn"
	"h2onas/internal/space"
	"h2onas/internal/tensor"
)

// layerSlot is one transformer layer's shared weights.
type layerSlot struct {
	ln0, ln1 *nn.MaskedLayerNorm
	attn     *nn.MaskedAttention
	ffnUp    *nn.LowRankDense // maxHidden → ffnRatio·maxHidden, shared rank factors
	ffnDown  *nn.MaskedDense  // ffnRatio·maxHidden → maxHidden

	// Per-forward caches.
	act *nn.ActivationLayer
}

// blockSlots is one multi-layer transformer block's slots.
type blockSlots struct {
	layers   []*layerSlot
	maxLayer int
}

// Supernet is the weight-sharing transformer super-network.
type Supernet struct {
	VS *space.ViTSpace

	vocab, seqLen, maxHidden int
	ffnRatio                 int

	tokens *nn.Embedding // vocab×maxHidden, fine-grained width sharing
	pos    *nn.Param     // seqLen×maxHidden
	blocks []*blockSlots
	trans  []*nn.MaskedDense // between-block width transitions
	head   *nn.MaskedDense   // maxHidden → 1

	// layers lists every layer once, in Params order: tokens, positions,
	// each layer slot's ln0, attn, ln1, ffnUp and ffnDown, the block
	// transitions, the head. Params, SetArena and SetWorkers all walk it;
	// a slot's activation layer is created lazily and takes the arena
	// from runLayer.
	layers []nn.SharedLayer
	params []*nn.Param

	// arena, when set, owns every forward/backward intermediate; it is
	// released (recycled) at the top of each Forward. One per shard
	// replica — arenas are single-goroutine.
	arena *tensor.Arena

	// Forward tape consumed by Backward.
	lastArch  space.ViTArch
	lastBatch *datapipe.SeqBatch
	tape      []poolCache
	headIn    *tensor.Matrix
	headSeq   int

	// Reused token-index scatter buffers (one []int slot per position).
	flat     [][]int
	flatToks []int
}

// poolCache records a sequence-pooling step for backward.
type poolCache struct {
	inSeq, outSeq, batch, width int
}

// New builds the super-network sized for the largest candidate. vocab and
// seqLen come from the traffic configuration.
func New(vs *space.ViTSpace, vocab, seqLen int, rng *tensor.RNG) *Supernet {
	if vs.Hybrid {
		panic("vitnet: super-network supports the pure transformer space")
	}
	cfg := vs.Config
	_, mh := vs.Space.Decisions[vs.Space.Lookup("tfm0_hidden")].Max()
	maxHidden := int(mh)
	s := &Supernet{
		VS:        vs,
		vocab:     vocab,
		seqLen:    seqLen,
		maxHidden: maxHidden,
	}
	s.ffnRatio = cfg.Blocks[0].FFNRatio
	if s.ffnRatio <= 0 {
		s.ffnRatio = 4
	}
	s.tokens = nn.NewEmbedding(vocab, maxHidden, rng.Split())
	s.pos = nn.NewParam("pos_embedding", tensor.RandN(seqLen, maxHidden, 0.02, rng.Split()))

	for b := range cfg.Blocks {
		if _, mh := vs.Space.Decisions[vs.Space.Lookup(fmt.Sprintf("tfm%d_hidden", b))].Max(); int(mh) != maxHidden {
			panic("vitnet: per-block max hidden sizes must agree")
		}
		maxLayers := cfg.Blocks[b].Layers + 3
		blk := &blockSlots{maxLayer: maxLayers}
		for l := 0; l < maxLayers; l++ {
			inner := s.ffnRatio * maxHidden
			slot := &layerSlot{
				ln0:     nn.NewMaskedLayerNorm(maxHidden),
				ln1:     nn.NewMaskedLayerNorm(maxHidden),
				attn:    nn.NewMaskedAttention(maxHidden, rng.Split()),
				ffnUp:   nn.NewLowRankDense(maxHidden, inner, maxHidden, rng.Split()),
				ffnDown: nn.NewMaskedDense(inner, maxHidden, rng.Split()),
			}
			slot.attn.HeadDim = 16
			blk.layers = append(blk.layers, slot)
		}
		s.blocks = append(s.blocks, blk)
		if b > 0 {
			s.trans = append(s.trans, nn.NewMaskedDense(maxHidden, maxHidden, rng.Split()))
		}
	}
	s.head = nn.NewMaskedDense(maxHidden, 1, rng.Split())

	s.layers = append(s.layers, s.tokens, posTable{s.pos})
	for _, blk := range s.blocks {
		for _, slot := range blk.layers {
			s.layers = append(s.layers, slot.ln0, slot.attn, slot.ln1, slot.ffnUp, slot.ffnDown)
		}
	}
	for _, tr := range s.trans {
		s.layers = append(s.layers, tr)
	}
	s.layers = append(s.layers, s.head)
	for _, l := range s.layers {
		s.params = append(s.params, l.Params()...)
	}
	return s
}

// posTable is the positional embedding as a layer-list entry: a bare
// parameter, read in place by Forward, with no pass of its own.
type posTable struct{ p *nn.Param }

func (t posTable) Params() []*nn.Param  { return []*nn.Param{t.p} }
func (posTable) SetArena(*tensor.Arena) {}
func (posTable) SetWorkers(int)         {}

// Params returns all shared parameters in a stable order.
func (s *Supernet) Params() []*nn.Param { return s.params }

// SetArena threads an arena through the super-network and all its layer
// slots. Every intermediate from a Forward/Backward pass (including the
// Loss gradient) is arena-owned: valid until the next Forward of any
// network bound to the same arena, which recycles them. nil reverts to
// per-pass heap allocation.
func (s *Supernet) SetArena(a *tensor.Arena) {
	s.arena = a
	for _, l := range s.layers {
		l.SetArena(a)
	}
}

// SetWorkers threads an intra-pass parallelism bound through every layer
// slot, mirroring SetArena. The bound is one shard's share of the
// search's core budget (core.Config.Workers); 0 or 1 — the default — keeps the
// historical serial layer loops, and any setting is bit-identical.
func (s *Supernet) SetWorkers(n int) {
	for _, l := range s.layers {
		l.SetWorkers(n)
	}
}

// Replicate returns a view sharing parameter values with s but with
// independent gradients and forward caches — one per accelerator shard.
func (s *Supernet) Replicate(*tensor.RNG) *Supernet {
	// The structural clone is built with a ZeroRNG: every replica weight
	// is immediately replaced by the master's shared storage, so a real
	// initialization would be thrown away. rng, the caller's per-replica
	// draw (core.Network), goes unused.
	r := New(s.VS, s.vocab, s.seqLen, tensor.ZeroRNG())
	nn.ShareValues(r.params, s.params)
	return r
}

// Forward runs the sub-network selected by the assignment over the batch
// and returns logits (batch×1).
func (s *Supernet) Forward(a space.Assignment, batch *datapipe.SeqBatch) *tensor.Matrix {
	// Recycle the previous pass's intermediates (no-op without an arena).
	s.arena.Release()
	ar := s.VS.Decode(a)
	s.lastArch = ar
	s.lastBatch = batch
	s.tape = s.tape[:0]

	n := batch.Size()
	seq := s.seqLen
	h := ar.TFMBlocks[0].Hidden

	// Token + positional embeddings at active width h. The single-id bag
	// slots are sub-slices of one reused backing array.
	s.tokens.SetActiveWidth(h)
	if cap(s.flat) < n*seq {
		s.flat = make([][]int, n*seq)
		s.flatToks = make([]int, n*seq)
	}
	flat := s.flat[:n*seq]
	for i, toks := range batch.Tokens {
		for t, tok := range toks {
			s.flatToks[i*seq+t] = tok
			flat[i*seq+t] = s.flatToks[i*seq+t : i*seq+t+1]
		}
	}
	x := s.tokens.Forward(flat)
	for i := 0; i < n; i++ {
		for t := 0; t < seq; t++ {
			row := x.Row(i*seq + t)
			prow := s.pos.Value.Row(t)[:h]
			for j := range row {
				row[j] += prow[j]
			}
		}
	}

	for b, blkArch := range ar.TFMBlocks {
		if b > 0 && blkArch.Hidden != h {
			s.trans[b-1].SetActive(h, blkArch.Hidden)
			x = s.trans[b-1].Forward(x)
			h = blkArch.Hidden
		}
		blk := s.blocks[b]
		layers := blkArch.Layers
		if layers > blk.maxLayer {
			layers = blk.maxLayer
		}
		act := actFromName(blkArch.Act)
		rank := rankFor(blkArch.LowRank, h)
		for l := 0; l < layers; l++ {
			x = s.runLayer(blk.layers[l], x, h, seq, rank, act)
		}
		if blkArch.SeqPool && seq > 1 {
			x, seq = s.pool(x, n, seq, h)
		}
	}

	// Mean over sequence, then the classifier head.
	s.headSeq = seq
	pooled := s.arena.Get(n, h)
	inv := 1 / float64(seq)
	for i := 0; i < n; i++ {
		prow := pooled.Row(i)
		for t := 0; t < seq; t++ {
			row := x.Row(i*seq + t)
			for j := range prow {
				prow[j] += row[j] * inv
			}
		}
	}
	s.headIn = pooled
	s.head.SetActive(h, 1)
	return s.head.Forward(pooled)
}

// runLayer executes one pre-norm transformer layer:
// x ← x + Attn(LN0(x)); x ← x + FFNdown(act(FFNup(LN1(x)))).
func (s *Supernet) runLayer(slot *layerSlot, x *tensor.Matrix, h, seq, rank int, act nn.Activation) *tensor.Matrix {
	slot.ln0.SetActive(h)
	slot.attn.SetActive(h, seq)
	attnOut := slot.attn.Forward(slot.ln0.Forward(x))
	y := s.arena.GetNoZero(x.Rows, x.Cols)
	tensor.AddInto(x, attnOut, y)

	inner := s.ffnRatio * h
	slot.ln1.SetActive(h)
	slot.ffnUp.SetActive(h, inner, rank)
	slot.ffnDown.SetActive(inner, h)
	// The activation layer is pooled per slot; the searchable activation
	// kind can change between passes.
	if slot.act == nil || slot.act.Act != act {
		slot.act = nn.NewActivationLayer(act)
	}
	slot.act.Arena = s.arena
	ffnOut := slot.ffnDown.Forward(slot.act.Forward(slot.ffnUp.Forward(slot.ln1.Forward(y))))
	out := s.arena.GetNoZero(y.Rows, y.Cols)
	tensor.AddInto(y, ffnOut, out)
	return out
}

// pool halves the sequence by averaging adjacent positions.
func (s *Supernet) pool(x *tensor.Matrix, n, seq, h int) (*tensor.Matrix, int) {
	outSeq := seq / 2
	out := s.arena.GetNoZero(n*outSeq, h)
	for i := 0; i < n; i++ {
		for t := 0; t < outSeq; t++ {
			a := x.Row(i*seq + 2*t)
			b := x.Row(i*seq + 2*t + 1)
			orow := out.Row(i*outSeq + t)
			for j := range orow {
				orow[j] = (a[j] + b[j]) / 2
			}
		}
	}
	s.tape = append(s.tape, poolCache{inSeq: seq, outSeq: outSeq, batch: n, width: h})
	return out, outSeq
}

// Backward propagates dLoss/dLogits through the selected sub-network.
func (s *Supernet) Backward(dLogits *tensor.Matrix) {
	if s.lastBatch == nil {
		panic("vitnet: Backward before Forward")
	}
	ar := s.lastArch
	n := s.lastBatch.Size()

	dPooled := s.head.Backward(dLogits)
	seq := s.headSeq
	// Un-pool the mean over sequence.
	grad := s.arena.GetNoZero(n*seq, dPooled.Cols)
	inv := 1 / float64(seq)
	for i := 0; i < n; i++ {
		prow := dPooled.Row(i)
		for t := 0; t < seq; t++ {
			row := grad.Row(i*seq + t)
			for j := range row {
				row[j] = prow[j] * inv
			}
		}
	}

	tapeIdx := len(s.tape) - 1
	for b := len(ar.TFMBlocks) - 1; b >= 0; b-- {
		blkArch := ar.TFMBlocks[b]
		if blkArch.SeqPool && tapeIdx >= 0 {
			pc := s.tape[tapeIdx]
			tapeIdx--
			grad = s.unpool(grad, pc)
		}
		blk := s.blocks[b]
		layers := blkArch.Layers
		if layers > blk.maxLayer {
			layers = blk.maxLayer
		}
		for l := layers - 1; l >= 0; l-- {
			grad = s.backLayer(blk.layers[l], grad)
		}
		if b > 0 && ar.TFMBlocks[b-1].Hidden != blkArch.Hidden {
			grad = s.trans[b-1].Backward(grad)
		}
	}

	// Positional embedding gradient plus token-table scatter.
	hAct := grad.Cols
	for i := 0; i < n; i++ {
		for t := 0; t < s.seqLen; t++ {
			row := grad.Row(i*s.seqLen + t)
			prow := s.pos.Grad.Row(t)[:hAct]
			for j := range row {
				prow[j] += row[j]
			}
		}
	}
	s.pos.Dirty = true
	s.tokens.Backward(grad)
}

// backLayer inverts runLayer. The FFN branch gradient flows through
// LN1→FFN and adds to the residual path; then the attention branch.
func (s *Supernet) backLayer(slot *layerSlot, grad *tensor.Matrix) *tensor.Matrix {
	dFFN := slot.ffnUp.Backward(slot.act.Backward(slot.ffnDown.Backward(grad)))
	dY := s.arena.GetNoZero(grad.Rows, grad.Cols)
	tensor.AddInto(grad, slot.ln1.Backward(dFFN), dY)
	dAttn := slot.ln0.Backward(slot.attn.Backward(dY))
	out := s.arena.GetNoZero(dY.Rows, dY.Cols)
	tensor.AddInto(dY, dAttn, out)
	return out
}

// unpool inverts the adjacent-pair average.
func (s *Supernet) unpool(grad *tensor.Matrix, pc poolCache) *tensor.Matrix {
	// Zeroed: with an odd input sequence the dropped trailing position
	// receives no gradient, and that zero must be explicit.
	out := s.arena.Get(pc.batch*pc.inSeq, pc.width)
	for i := 0; i < pc.batch; i++ {
		for t := 0; t < pc.outSeq; t++ {
			g := grad.Row(i*pc.outSeq + t)
			a := out.Row(i*pc.inSeq + 2*t)
			b := out.Row(i*pc.inSeq + 2*t + 1)
			for j := range g {
				a[j] = g[j] / 2
				b[j] = g[j] / 2
			}
		}
	}
	return out
}

// Loss runs Forward and returns the BCE loss and logits gradient. With
// an arena set, the gradient is arena-owned: valid through Backward,
// recycled by the next Forward.
func (s *Supernet) Loss(a space.Assignment, batch *datapipe.SeqBatch) (float64, *tensor.Matrix) {
	logits := s.Forward(a, batch)
	grad := s.arena.GetNoZero(logits.Rows, logits.Cols)
	return nn.BCEWithLogits{}.EvalInto(logits, batch.Labels, grad), grad
}

// Quality is 1 − logloss/ln 2 on the batch (forward only).
func (s *Supernet) Quality(a space.Assignment, batch *datapipe.SeqBatch) float64 {
	loss, _ := s.Loss(a, batch)
	return 1 - loss/math.Ln2
}

func actFromName(name string) nn.Activation {
	switch name {
	case "relu":
		return nn.ReLU
	case "swish":
		return nn.Swish
	case "gelu":
		return nn.GeLU
	case "squared_relu":
		return nn.SquaredReLU
	default:
		return nn.GeLU
	}
}

func rankFor(frac float64, h int) int {
	if frac >= 1 {
		return h
	}
	r := int(math.Round(frac * float64(h)))
	if r < 8 {
		r = 8
	}
	if r > h {
		r = h
	}
	return r
}
