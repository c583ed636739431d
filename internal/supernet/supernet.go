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
	"math"

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
// starves whichever path is sampled less).
type mlpSlot struct {
	low *nn.LowRankDense

	maxIn, maxOut int
}

// Supernet is the weight-sharing super-network for a DLRM search space.
type Supernet struct {
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

	// layers lists every layer once, in Params order: the embedding
	// tables feature by feature, the bottom and top MLP slots, the logit
	// layer. Params, SetArena and SetWorkers all walk it.
	layers []nn.SharedLayer
	params []*nn.Param

	// arena, when set via SetArena, owns every intermediate matrix of a
	// forward/backward pass; Forward releases it on entry, so the
	// previous pass's buffers are recycled instead of garbage-collected.
	arena *tensor.Arena

	// vocabIdx[t] is the decision index of emb<t>_vocab, resolved once.
	vocabIdx []int

	// acts is the pool of reusable activation layers; lastActs is the
	// per-pass view of the ones actually used, consumed by Backward.
	acts []*nn.ActivationLayer

	// caches from the last Forward, consumed by Backward.
	lastAssignment space.Assignment
	lastArch       space.DLRMArch
	lastBatch      *datapipe.Batch
	lastActs       []*nn.ActivationLayer
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
		s.layers = append(s.layers, e)
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
				maxIn:  in,
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
		s.layers = append(s.layers, slot.low)
	}
	s.layers = append(s.layers, s.logit)
	for _, l := range s.layers {
		s.params = append(s.params, l.Params()...)
	}

	s.vocabIdx = make([]int, cfg.NumTables)
	for t := 0; t < cfg.NumTables; t++ {
		s.vocabIdx[t] = ds.Space.Lookup(fmt.Sprintf("emb%d_vocab", t))
	}
	return s
}

// SetArena threads a per-shard arena through every layer of the
// super-network. All intermediates of a pass — including the logits and
// loss gradient — become arena-owned: they stay valid through Backward
// and are recycled by the next Forward on this super-network. Callers
// that retain outputs across steps must Clone them. Pass nil to revert
// to per-call heap allocation.
func (s *Supernet) SetArena(a *tensor.Arena) {
	s.arena = a
	for _, l := range s.layers {
		l.SetArena(a)
	}
	for _, act := range s.acts {
		act.Arena = a
	}
}

// SetWorkers threads an intra-pass parallelism bound through every layer
// of the super-network, mirroring SetArena. The bound is one shard's
// share of the search's core budget (core.Config.Workers ÷ Shards for
// replicas, the full budget for the coordinator-exclusive master
// passes); it is a performance knob only — every layer's parallel path
// is bit-identical to its serial loop, so the setting never changes a
// trajectory. 0 or 1 keeps the historical serial layer loops.
func (s *Supernet) SetWorkers(n int) {
	for _, l := range s.layers {
		l.SetWorkers(n)
	}
}

// Params returns every shared parameter in a stable order.
func (s *Supernet) Params() []*nn.Param { return s.params }

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
	nn.ShareValues(r.params, s.params)
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
	s.arena.Release()
	s.DS.DecodeInto(a, &s.lastArch)
	ar := s.lastArch
	cfg := s.DS.Config
	n := batch.Size()

	s.lastAssignment = append(s.lastAssignment[:0], a...)
	s.lastBatch = batch
	s.lastActs = s.lastActs[:0]

	// Bottom MLP over dense features.
	x := batch.Dense
	for i, w := range ar.BottomWidths {
		x = s.runSlot(s.bottom[i], x, w, ar.BottomRanks[i])
		x = s.activate(x)
	}
	s.lastBottomOut = x.Cols

	// Concat: bottom output then one fixed-offset slot per table. The
	// zero fill is load-bearing: padding implements input-side masking.
	concat := s.arena.Get(n, s.concatWidth)
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
		y = s.runSlot(s.top[i], y, w, ar.TopRanks[i])
		y = s.activate(y)
	}
	s.logit.SetActive(y.Cols, 1)
	return s.logit.Forward(y)
}

// runSlot runs one MLP slot at (activeIn = x.Cols, activeOut = w, rank).
func (s *Supernet) runSlot(slot *mlpSlot, x *tensor.Matrix, w, rank int) *tensor.Matrix {
	if r := min(w, x.Cols); rank > r {
		rank = r
	}
	slot.low.SetActive(x.Cols, w, rank)
	return slot.low.Forward(x)
}

func (s *Supernet) activate(x *tensor.Matrix) *tensor.Matrix {
	// Reuse pooled activation layers instead of allocating one per layer
	// per pass; lastActs tracks the ones this pass used, in order.
	i := len(s.lastActs)
	if i == len(s.acts) {
		act := nn.NewActivationLayer(nn.ReLU)
		act.Arena = s.arena
		s.acts = append(s.acts, act)
	}
	act := s.acts[i]
	s.lastActs = append(s.lastActs, act)
	return act.Forward(x)
}

// Backward propagates dLoss/dLogits through the sub-network selected by
// the last Forward, accumulating gradients on the shared parameters.
func (s *Supernet) Backward(dLogits *tensor.Matrix) {
	if s.lastBatch == nil {
		panic("supernet: Backward before Forward")
	}
	a, ar, cfg := s.lastAssignment, s.lastArch, s.DS.Config
	actIdx := len(s.lastActs) - 1

	grad := s.logit.Backward(dLogits)
	for i := len(ar.TopWidths) - 1; i >= 0; i-- {
		grad = s.lastActs[actIdx].Backward(grad)
		actIdx--
		grad = s.top[i].low.Backward(grad)
	}

	// Scatter the concat gradient to the embeddings and the bottom MLP.
	n := grad.Rows
	for t := 0; t < cfg.NumTables; t++ {
		w := ar.EmbWidths[t]
		if w <= 0 {
			continue
		}
		off := s.maxBottomOut + t*s.maxEmbWidth
		eg := s.arena.GetNoZero(n, w)
		for r := 0; r < n; r++ {
			copy(eg.Row(r), grad.Row(r)[off:off+w])
		}
		s.tableFor(a, t, ar).Backward(eg)
	}
	bw := s.lastBottomOut
	bg := s.arena.GetNoZero(n, bw)
	for r := 0; r < n; r++ {
		copy(bg.Row(r), grad.Row(r)[:bw])
	}
	grad = bg
	for i := len(ar.BottomWidths) - 1; i >= 0; i-- {
		grad = s.lastActs[actIdx].Backward(grad)
		actIdx--
		grad = s.bottom[i].low.Backward(grad)
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

// Loss runs Forward and returns the BCE loss plus its logits gradient.
// With an arena set, the gradient is arena-owned: valid through Backward,
// recycled by the next Forward.
func (s *Supernet) Loss(a space.Assignment, batch *datapipe.Batch) (float64, *tensor.Matrix) {
	logits := s.Forward(a, batch)
	grad := s.arena.GetNoZero(logits.Rows, logits.Cols)
	return nn.BCEWithLogits{}.EvalInto(logits, batch.Labels, grad), grad
}

// Quality evaluates the candidate's quality signal Q(α) on the batch
// (forward only): 1 − logloss/ln 2, so predicting the uninformative 0.5
// scores 0 and a perfect predictor scores 1.
func (s *Supernet) Quality(a space.Assignment, batch *datapipe.Batch) float64 {
	loss, _ := s.Loss(a, batch)
	return 1 - loss/math.Ln2
}
