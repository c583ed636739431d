// Package supernet implements the first weight-sharing super-network for
// DLRM on RL-based one-shot NAS (Section 5.1.2, Figure 3). Sharing is
// hybrid:
//
//   - ① fine-grained over embedding widths: one vocab×maxWidth table per
//     (feature, vocabulary) pair; smaller widths reuse the leading columns.
//   - ② coarse-grained over vocabulary sizes: each vocabulary option gets
//     its own table, avoiding harmful interaction between candidates that
//     fold ids differently (a FineVocab option exists for ablating this
//     choice — see VocabSharing).
//   - ③ fine-grained over MLP widths: one maxIn×maxOut matrix per layer
//     slot; smaller candidates use the upper-left sub-matrix.
//   - ④ fine-grained over low-rank factorization: shared U/V factors per
//     layer slot; rank r reuses the first r columns/rows.
//
// A candidate architecture (a space.Assignment) selects a sub-network;
// Forward/Backward train only that sub-network's weights, exactly as if
// the rest were masked to zero.
package supernet

import (
	"fmt"

	"h2onas/internal/datapipe"
	"h2onas/internal/nn"
	"h2onas/internal/space"
	"h2onas/internal/tensor"
)

// mlpSlot is one MLP layer slot implementing Figure 3's fine-grained
// sharing for MLP layers (③/④): a single pair of shared low-rank factors
// sized for the largest width and the full rank, from which every
// candidate selects its (in, out, rank) sub-factors. The rank sweep of
// Table 5 includes 10/10 — full rank — so the unfactorized candidate is
// the factorized path at maximal rank; a single shared parameterization
// keeps every rank candidate's weights inside every other candidate's
// gradient flow (splitting full-rank weights into a separate matrix
// starves whichever path is sampled less). The slot's ReLU is built and
// listed with it.
type mlpSlot struct {
	low *nn.LowRankDense
	act *nn.ActivationLayer

	maxOut int
}

// Supernet is the weight-sharing super-network for a DLRM search space.
// Its SharedNet lists every layer once, in Params order: the embedding
// tables feature by feature, each bottom and top MLP slot with its ReLU,
// the logit layer.
type Supernet struct {
	nn.SharedNet

	DS   *space.DLRMSpace
	opts Options

	// tables[t][v] is feature t's embedding table for vocabulary option v.
	tables [][]*nn.Embedding

	bottom []*mlpSlot
	top    []*mlpSlot
	logit  *nn.MaskedDense

	maxEmbWidth  int
	maxBottomOut int
	concatWidth  int

	// vocabIdx[t] is the decision index of emb<t>_vocab, resolved once.
	vocabIdx []int

	// caches from the last Forward, consumed by Backward.
	lastAssignment space.Assignment
	lastArch       space.DLRMArch
	lastBatch      *datapipe.Batch
	lastBottomOut  int
}

// VocabSharing selects how vocabulary-size candidates share embedding
// weights (the ② choice of Figure 3).
type VocabSharing int

const (
	// CoarseVocab gives every vocabulary option its own table — the
	// paper's choice, avoiding harmful interaction between candidates
	// that fold ids differently, at the cost of each table seeing only
	// its share of the traffic.
	CoarseVocab VocabSharing = iota
	// FineVocab shares one max-vocabulary table across all options;
	// smaller vocabularies fold ids modulo their size. Every option
	// trains the same rows (more gradient per row) but folded candidates
	// write colliding updates into rows other candidates read — the
	// interference the paper's design avoids. Kept for the ablation.
	FineVocab
)

// Options configures super-network construction.
type Options struct {
	VocabSharing VocabSharing
}

// New builds the super-network sized for the largest candidate in every
// decision of the space, with the paper's default sharing choices.
func New(ds *space.DLRMSpace, rng *tensor.RNG) *Supernet {
	return NewWithOptions(ds, rng, Options{})
}

// NewWithOptions builds the super-network with explicit sharing choices.
func NewWithOptions(ds *space.DLRMSpace, rng *tensor.RNG, opts Options) *Supernet {
	cfg := ds.Config
	s := &Supernet{DS: ds, opts: opts}

	sp := ds.Space
	_, w0 := sp.Decisions[sp.Lookup("emb0_width")].Max()
	s.maxEmbWidth = int(w0)
	// Every table's vocabulary, feature by feature: one per option under
	// coarse sharing, the largest under fine. The tables are built in one
	// call, so their pending-row marks share one allocation.
	var vocabs []int
	perTable := make([]int, cfg.NumTables)
	for t := 0; t < cfg.NumTables; t++ {
		if _, w := sp.Decisions[sp.Lookup(fmt.Sprintf("emb%d_width", t))].Max(); int(w) != s.maxEmbWidth {
			panic("supernet: per-table max widths must agree")
		}
		vocabDec := &sp.Decisions[sp.Lookup(fmt.Sprintf("emb%d_vocab", t))]
		if opts.VocabSharing == FineVocab {
			_, maxVocab := vocabDec.Max()
			vocabs = append(vocabs, int(maxVocab))
			perTable[t] = 1
			continue
		}
		for _, vocab := range vocabDec.Values {
			vocabs = append(vocabs, int(vocab))
		}
		perTable[t] = len(vocabDec.Values)
	}
	embs := nn.NewEmbeddings(vocabs, s.maxEmbWidth, rng)
	for _, e := range embs {
		s.List(e)
	}
	s.tables = make([][]*nn.Embedding, cfg.NumTables)
	for t, n := range perTable {
		s.tables[t], embs = embs[:n:n], embs[n:]
	}

	buildSlots := func(prefix string, n, firstIn int) []*mlpSlot {
		slots := make([]*mlpSlot, n)
		in := firstIn
		for i := 0; i < n; i++ {
			_, w := sp.Decisions[sp.Lookup(fmt.Sprintf("%s%d_width", prefix, i))].Max()
			out := int(w)
			maxRank := min(in, out)
			slots[i] = &mlpSlot{
				low:    nn.NewLowRankDense(in, out, maxRank, rng.Split()),
				act:    nn.NewActivationLayer(nn.ReLU),
				maxOut: out,
			}
			// Every slot after the first is fed through the preceding
			// slot's ReLU, and its dX goes straight back into that ReLU's
			// mask — the backward pass can skip dead columns. Slot 0's dX
			// has other consumers (raw features, the concat scatter).
			if i > 0 {
				slots[i].low.SetReLUInput(true)
			}
			in = out
		}
		return slots
	}
	s.bottom = buildSlots("bottom", ds.MaxBottomLayers(), cfg.NumDense)
	// The searched depth can stop at any slot, so the bottom output slot in
	// the concat layout must fit the widest of them.
	for _, slot := range s.bottom {
		if slot.maxOut > s.maxBottomOut {
			s.maxBottomOut = slot.maxOut
		}
	}
	// The concat layout is fixed: [bottom slot | one slot per table], each
	// at its maximum width, zero-padded when a candidate uses less. The
	// zero padding is what implements input-side masking for the top MLP.
	s.concatWidth = s.maxBottomOut + cfg.NumTables*s.maxEmbWidth
	s.top = buildSlots("top", ds.MaxTopLayers(), s.concatWidth)
	maxTopOut := 0
	for _, slot := range s.top {
		if slot.maxOut > maxTopOut {
			maxTopOut = slot.maxOut
		}
	}
	s.logit = nn.NewMaskedDense(maxTopOut, 1, rng.Split())

	for _, slot := range append(append([]*mlpSlot{}, s.bottom...), s.top...) {
		s.List(slot.low, slot.act)
	}
	s.List(s.logit)

	s.vocabIdx = make([]int, cfg.NumTables)
	for t := 0; t < cfg.NumTables; t++ {
		s.vocabIdx[t] = ds.Space.Lookup(fmt.Sprintf("emb%d_vocab", t))
	}
	return s
}

// Options returns the sharing choices the super-network was built with,
// so a remote transport can hand a worker everything it needs to build a
// structurally identical replica.
func (s *Supernet) Options() Options { return s.opts }

// ConcatWidth returns the fixed concatenated-feature width.
func (s *Supernet) ConcatWidth() int { return s.concatWidth }

// Replicate returns a view of the super-network that shares every
// parameter *value* with s but accumulates gradients separately — one
// replica per accelerator shard, with a cross-shard gradient reduction
// after the parallel step (Section 4.2 stage 3).
func (s *Supernet) Replicate(*tensor.RNG) *Supernet {
	// Every replica weight is immediately replaced by the master's shared
	// storage, so the structural clone is built with a ZeroRNG — the
	// random initialization it would otherwise compute is pure waste. rng,
	// the caller's per-replica draw (core.Network), goes unused.
	r := NewWithOptions(s.DS, tensor.ZeroRNG(), s.opts)
	nn.ShareValues(r.Params(), s.Params())
	return r
}

// Forward runs the sub-network selected by the assignment over the batch
// and returns logits (batch×1). The layers cache activations; call
// Backward with the loss gradient to accumulate parameter gradients for
// the same candidate.
func (s *Supernet) Forward(a space.Assignment, batch *datapipe.Batch) *tensor.Matrix {
	// Recycle the previous pass's intermediates (no-op without an arena).
	// Anything the caller still holds from the last pass becomes invalid
	// here — see SetArena.
	arena := s.Arena()
	arena.Release()
	s.DS.DecodeInto(a, &s.lastArch)
	ar := s.lastArch
	cfg := s.DS.Config
	n := batch.Size()

	s.lastAssignment = append(s.lastAssignment[:0], a...)
	s.lastBatch = batch

	// Bottom MLP over dense features.
	x := batch.Dense
	for i, w := range ar.BottomWidths {
		x = runSlot(s.bottom[i], x, w, ar.BottomRanks[i])
	}
	s.lastBottomOut = x.Cols

	// Concat: bottom output then one fixed-offset slot per table. The
	// zero fill is load-bearing: padding implements input-side masking.
	concat := arena.Get(n, s.concatWidth)
	for r := 0; r < n; r++ {
		copy(concat.Row(r)[:x.Cols], x.Row(r))
	}
	for t := 0; t < cfg.NumTables; t++ {
		w := ar.EmbWidths[t]
		if w <= 0 {
			continue
		}
		emb := s.tableFor(a, t, ar)
		emb.SetActiveWidth(w)
		out := emb.Forward(batch.Sparse[t])
		off := s.maxBottomOut + t*s.maxEmbWidth
		for r := 0; r < n; r++ {
			copy(concat.Row(r)[off:off+w], out.Row(r))
		}
	}

	// Top MLP: the first layer always sees the full concat width (the
	// zero-padded layout is the mask); deeper layers use prefix widths.
	y := concat
	for i, w := range ar.TopWidths {
		y = runSlot(s.top[i], y, w, ar.TopRanks[i])
	}
	s.logit.SetActive(y.Cols, 1)
	return s.logit.Forward(y)
}

// runSlot runs one MLP slot at (activeIn = x.Cols, activeOut = w, rank)
// and its ReLU.
func runSlot(slot *mlpSlot, x *tensor.Matrix, w, rank int) *tensor.Matrix {
	if r := min(w, x.Cols); rank > r {
		rank = r
	}
	slot.low.SetActive(x.Cols, w, rank)
	return slot.act.Forward(slot.low.Forward(x))
}

// backSlot inverts runSlot.
func backSlot(slot *mlpSlot, grad *tensor.Matrix) *tensor.Matrix {
	return slot.low.Backward(slot.act.Backward(grad))
}

// Backward propagates dLoss/dLogits through the sub-network selected by
// the last Forward, accumulating gradients on the shared parameters.
func (s *Supernet) Backward(dLogits *tensor.Matrix) {
	if s.lastBatch == nil {
		panic("supernet: Backward before Forward")
	}
	a, ar, cfg := s.lastAssignment, s.lastArch, s.DS.Config
	arena := s.Arena()

	grad := s.logit.Backward(dLogits)
	for i := len(ar.TopWidths) - 1; i >= 0; i-- {
		grad = backSlot(s.top[i], grad)
	}

	// Scatter the concat gradient to the embeddings and the bottom MLP.
	n := grad.Rows
	for t := 0; t < cfg.NumTables; t++ {
		w := ar.EmbWidths[t]
		if w <= 0 {
			continue
		}
		off := s.maxBottomOut + t*s.maxEmbWidth
		eg := arena.GetNoZero(n, w)
		for r := 0; r < n; r++ {
			copy(eg.Row(r), grad.Row(r)[off:off+w])
		}
		s.tableFor(a, t, ar).Backward(eg)
	}
	bw := s.lastBottomOut
	bg := arena.GetNoZero(n, bw)
	for r := 0; r < n; r++ {
		copy(bg.Row(r), grad.Row(r)[:bw])
	}
	grad = bg
	for i := len(ar.BottomWidths) - 1; i >= 0; i-- {
		grad = backSlot(s.bottom[i], grad)
	}
}

// tableFor returns the embedding table serving table t under the
// assignment, configured for the candidate's vocabulary: the per-option
// table under coarse sharing, or the shared table with the active
// vocabulary folded under fine sharing.
func (s *Supernet) tableFor(a space.Assignment, t int, ar space.DLRMArch) *nn.Embedding {
	if s.opts.VocabSharing == FineVocab {
		emb := s.tables[t][0]
		emb.SetActiveVocab(ar.EmbVocabs[t])
		return emb
	}
	return s.tables[t][s.vocabChoice(a, t)]
}

// vocabChoice returns the selected vocabulary option index for table t.
func (s *Supernet) vocabChoice(a space.Assignment, t int) int {
	return a[s.vocabIdx[t]]
}

// Loss runs Forward and returns the BCE loss plus its logits gradient
// (SharedNet.BCELoss).
func (s *Supernet) Loss(a space.Assignment, batch *datapipe.Batch) (float64, *tensor.Matrix) {
	return s.BCELoss(s.Forward(a, batch), batch.Labels)
}

// Quality evaluates the candidate's quality signal Q(α) on the batch,
// forward only (nn.QualityFromLoss).
func (s *Supernet) Quality(a space.Assignment, batch *datapipe.Batch) float64 {
	loss, _ := s.Loss(a, batch)
	return nn.QualityFromLoss(loss)
}
