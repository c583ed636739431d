package space

import (
	"fmt"
	"math"

	"h2onas/internal/arch"
)

// DLRMConfig describes the baseline deep learning recommendation model
// around which the DLRM search space is constructed (Figure 3): sparse
// embedding tables, an optional bottom MLP over dense features, and a top
// MLP over the concatenated features.
type DLRMConfig struct {
	Name string

	// Sparse side.
	NumTables    int // number of sparse features / embedding tables
	BaseEmbWidth int // baseline embedding width per table
	EmbWidthStep int // the paper's 𝒴 increment (minimum 8)
	BaseVocab    int // baseline vocabulary size per table
	BagSize      int // average ids per example per table

	// Dense side.
	NumDense     int   // dense input features
	BottomWidths []int // baseline bottom-MLP layer widths
	TopWidths    []int // baseline top-MLP hidden layer widths
	MLPWidthStep int   // the paper's 𝒵 increment (minimum 8)

	// Execution shape.
	Batch int // per-chip batch
	Chips int // chips the model trains on (embedding sharding + sync)
	DType int // bytes per element
}

// DefaultDLRMConfig returns a laptop-scale production-shaped DLRM: 26
// sparse features (the Criteo convention), a 3-layer bottom and 4-layer
// top MLP. Searches in tests and examples use this baseline.
func DefaultDLRMConfig() DLRMConfig {
	return DLRMConfig{
		Name:         "dlrm-base",
		NumTables:    26,
		BaseEmbWidth: 32,
		EmbWidthStep: 8,
		BaseVocab:    100_000,
		BagSize:      1,
		NumDense:     13,
		BottomWidths: []int{256, 128, 64},
		TopWidths:    []int{512, 256, 128, 64},
		MLPWidthStep: 32,
		Batch:        4096,
		Chips:        128,
		DType:        4,
	}
}

// SmallDLRMConfig returns a deliberately small baseline whose super-network
// trains in seconds: the configuration used for actual one-shot searches in
// tests, benches and examples. The base embedding width is chosen so the
// width sweep reaches 0 (table removal is searchable).
func SmallDLRMConfig() DLRMConfig {
	return DLRMConfig{
		Name:         "dlrm-small",
		NumTables:    8,
		BaseEmbWidth: 12,
		EmbWidthStep: 4,
		BaseVocab:    500,
		BagSize:      1,
		NumDense:     8,
		BottomWidths: []int{32, 16},
		TopWidths:    []int{64, 32},
		MLPWidthStep: 8,
		Batch:        256,
		Chips:        8,
		DType:        4,
	}
}

// ProductionDLRMConfig returns the production-scale shape the paper's
// Table 5 sizing refers to: O(150) embedding tables and O(10) MLP layers,
// giving the O(10^282) joint space.
func ProductionDLRMConfig() DLRMConfig {
	return DLRMConfig{
		Name:         "dlrm-production",
		NumTables:    150,
		BaseEmbWidth: 96,
		EmbWidthStep: 16,
		BaseVocab:    5_000_000,
		BagSize:      4,
		NumDense:     256,
		BottomWidths: []int{1024, 512, 256},
		TopWidths:    []int{2048, 1024, 1024, 512, 512, 256, 64},
		MLPWidthStep: 64,
		Batch:        8192,
		Chips:        128,
		DType:        4,
	}
}

// DLRMSpace couples a DLRM baseline with its search space and decoders.
type DLRMSpace struct {
	Config DLRMConfig
	Space  *Space

	maxBottom, maxTop int

	// Decision indices resolved once at construction so the hot decode
	// path (every supernet Forward/Backward) does no name formatting or
	// map lookups.
	embWidthIdx, embVocabIdx      []int
	bottomWidthIdx, bottomRankIdx []int
	topWidthIdx, topRankIdx       []int
	bottomDepthIdx, topDepthIdx   int

	// Op names of every graph slot, formatted once so building a graph
	// formats none: "emb<i>" per table, and per MLP layer slot the names
	// of its dense, low-rank and activation ops.
	embNames              []string
	bottomNames, topNames []layerNames
}

// layerNames are the op names of one MLP layer slot: the dense op (the
// layer's own name), the two DenseOps of its rank-r factorization ("/u"
// and "/v") and its activation.
type layerNames struct{ dense, u, v, relu string }

func newLayerNames(name string) layerNames {
	return layerNames{dense: name, u: name + "/u", v: name + "/v", relu: name + "/relu"}
}

// vocabFractions are the Table 5 vocabulary-size multipliers.
var vocabFractions = []float64{0.5, 0.75, 1.0, 1.25, 1.5, 1.75, 2.0}

// lowRankFractions are the Table 5 rank fractions 1/10 … 10/10.
var lowRankFractions = []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0}

// depthDeltas are the Table 5 layer-count offsets −3 … +3.
var depthDeltas = []float64{-3, -2, -1, 0, 1, 2, 3}

// NewDLRMSpace constructs the DLRM search space of Table 5 over the given
// baseline: per-table embedding width and vocabulary decisions, per-layer
// MLP width and low-rank decisions (for every layer the searched depth can
// reach), and bottom/top depth decisions.
func NewDLRMSpace(cfg DLRMConfig) *DLRMSpace {
	s := NewSpace("dlrm/" + cfg.Name)
	for i := 0; i < cfg.NumTables; i++ {
		// Width 0 removes the table (Table 5 footnote 3).
		s.Add(NewDecision(fmt.Sprintf("emb%d_width", i),
			offsets(cfg.BaseEmbWidth, cfg.EmbWidthStep, -3, 3, 0)...))
		vocab := make([]float64, len(vocabFractions))
		for j, f := range vocabFractions {
			vocab[j] = math.Round(f * float64(cfg.BaseVocab))
		}
		s.Add(NewDecision(fmt.Sprintf("emb%d_vocab", i), vocab...))
	}
	maxBottom := len(cfg.BottomWidths) + 3
	maxTop := len(cfg.TopWidths) + 3
	addMLP := func(prefix string, widths []int, maxLayers int) {
		for i := 0; i < maxLayers; i++ {
			base := widths[min(i, len(widths)-1)]
			s.Add(NewDecision(fmt.Sprintf("%s%d_width", prefix, i),
				offsets(base, cfg.MLPWidthStep, -5, 5, 8)...))
			s.Add(NewDecision(fmt.Sprintf("%s%d_rank", prefix, i), lowRankFractions...))
		}
		s.Add(NewDecision(prefix+"_depth", depthDeltas...))
	}
	addMLP("bottom", cfg.BottomWidths, maxBottom)
	addMLP("top", cfg.TopWidths, maxTop)
	d := &DLRMSpace{Config: cfg, Space: s, maxBottom: maxBottom, maxTop: maxTop}
	for i := 0; i < cfg.NumTables; i++ {
		d.embWidthIdx = append(d.embWidthIdx, s.Lookup(fmt.Sprintf("emb%d_width", i)))
		d.embVocabIdx = append(d.embVocabIdx, s.Lookup(fmt.Sprintf("emb%d_vocab", i)))
		d.embNames = append(d.embNames, fmt.Sprintf("emb%d", i))
	}
	for i := 0; i < maxBottom; i++ {
		d.bottomWidthIdx = append(d.bottomWidthIdx, s.Lookup(fmt.Sprintf("bottom%d_width", i)))
		d.bottomRankIdx = append(d.bottomRankIdx, s.Lookup(fmt.Sprintf("bottom%d_rank", i)))
		d.bottomNames = append(d.bottomNames, newLayerNames(fmt.Sprintf("bottom%d", i)))
	}
	for i := 0; i < maxTop; i++ {
		d.topWidthIdx = append(d.topWidthIdx, s.Lookup(fmt.Sprintf("top%d_width", i)))
		d.topRankIdx = append(d.topRankIdx, s.Lookup(fmt.Sprintf("top%d_rank", i)))
		d.topNames = append(d.topNames, newLayerNames(fmt.Sprintf("top%d", i)))
	}
	d.bottomDepthIdx = s.Lookup("bottom_depth")
	d.topDepthIdx = s.Lookup("top_depth")
	return d
}

// DLRMArch is a decoded DLRM architecture candidate.
type DLRMArch struct {
	EmbWidths []int // 0 = table removed
	EmbVocabs []int
	// Active layer widths and low-rank values (rank == width means no
	// factorization).
	BottomWidths, BottomRanks []int
	TopWidths, TopRanks       []int
}

// MaxBottomLayers returns the number of bottom-MLP layer slots the space
// carries decisions for.
func (d *DLRMSpace) MaxBottomLayers() int { return d.maxBottom }

// MaxTopLayers returns the number of top-MLP layer slots.
func (d *DLRMSpace) MaxTopLayers() int { return d.maxTop }

// Decode maps an assignment to the architecture it selects.
func (d *DLRMSpace) Decode(a Assignment) DLRMArch {
	var out DLRMArch
	d.DecodeInto(a, &out)
	return out
}

// DecodeInto decodes the assignment into out, reusing out's slices when
// their capacity allows — the allocation-free decode the search step's
// hot path uses. Decision indices are resolved once at construction, so
// no name formatting or map lookups happen here.
func (d *DLRMSpace) DecodeInto(a Assignment, out *DLRMArch) {
	if err := d.Space.Validate(a); err != nil {
		panic(err)
	}
	cfg := d.Config
	val := func(idx int) float64 { return d.Space.Decisions[idx].Values[a[idx]] }
	out.EmbWidths = out.EmbWidths[:0]
	out.EmbVocabs = out.EmbVocabs[:0]
	for i := 0; i < cfg.NumTables; i++ {
		out.EmbWidths = append(out.EmbWidths, int(val(d.embWidthIdx[i])))
		out.EmbVocabs = append(out.EmbVocabs, int(val(d.embVocabIdx[i])))
	}
	decodeMLP := func(widths, ranks []int, widthIdx, rankIdx []int, depthIdx, baseDepth, maxLayers int) ([]int, []int) {
		depth := baseDepth + int(val(depthIdx))
		if depth < 1 {
			depth = 1
		}
		if depth > maxLayers {
			depth = maxLayers
		}
		widths, ranks = widths[:0], ranks[:0]
		for i := 0; i < depth; i++ {
			w := int(val(widthIdx[i]))
			frac := val(rankIdx[i])
			rank := int(math.Round(frac * float64(w)))
			rank = roundUpTo8(rank)
			if rank > w {
				rank = w
			}
			widths = append(widths, w)
			ranks = append(ranks, rank)
		}
		return widths, ranks
	}
	out.BottomWidths, out.BottomRanks = decodeMLP(out.BottomWidths, out.BottomRanks,
		d.bottomWidthIdx, d.bottomRankIdx, d.bottomDepthIdx, len(cfg.BottomWidths), d.maxBottom)
	out.TopWidths, out.TopRanks = decodeMLP(out.TopWidths, out.TopRanks,
		d.topWidthIdx, d.topRankIdx, d.topDepthIdx, len(cfg.TopWidths), d.maxTop)
}

// BaselineAssignment returns the assignment that reproduces the baseline
// architecture (all offsets zero, vocab 100%, rank fraction 1).
func (d *DLRMSpace) BaselineAssignment() Assignment {
	cfg := d.Config
	a := make(Assignment, len(d.Space.Decisions))
	set := func(i int, want float64) { d.Space.setNearest(a, i, want) }
	for i := 0; i < cfg.NumTables; i++ {
		set(d.embWidthIdx[i], float64(cfg.BaseEmbWidth))
		set(d.embVocabIdx[i], float64(cfg.BaseVocab))
	}
	setMLP := func(widthIdx, rankIdx []int, depthIdx int, widths []int) {
		for i := range widthIdx {
			set(widthIdx[i], float64(widths[min(i, len(widths)-1)]))
			set(rankIdx[i], 1.0)
		}
		set(depthIdx, 0)
	}
	setMLP(d.bottomWidthIdx, d.bottomRankIdx, d.bottomDepthIdx, cfg.BottomWidths)
	setMLP(d.topWidthIdx, d.topRankIdx, d.topDepthIdx, cfg.TopWidths)
	return a
}

// Graph builds the arch.Graph for a decoded candidate, modelling the
// paper's distributed DLRM execution: table-sharded embeddings with an
// all-to-all exchange, data-parallel MLPs with gradient all-reduce.
func (d *DLRMSpace) Graph(ar DLRMArch) *arch.Graph {
	g := new(arch.Graph)
	d.GraphInto(ar, g)
	return g
}

// GraphInto builds the candidate's graph into g, replacing what g held and
// reusing its storage (arch.Graph.Reset), so rebuilding one graph per
// candidate allocates nothing once g has held a graph as large.
func (d *DLRMSpace) GraphInto(ar DLRMArch, g *arch.Graph) {
	cfg := d.Config
	b, dt := cfg.Batch, cfg.DType
	g.Reset(cfg.Name, b, dt, 0)

	var embOut int // concatenated embedding width
	var embParams float64
	for i, w := range ar.EmbWidths {
		if w <= 0 {
			continue
		}
		vocab := ar.EmbVocabs[i]
		arch.EmbeddingOp(g.Push(), d.embNames[i], b, cfg.BagSize, w, vocab, dt)
		embOut += w
		embParams += float64(vocab) * float64(w)
	}
	if embOut > 0 && cfg.Chips > 1 {
		// Each chip exchanges its shard's pooled embeddings with all
		// others: ~batch × total width values per chip per step.
		arch.AllToAllOp(g.Push(), "emb_exchange", float64(b*embOut)*float64(dt))
	}

	var denseParams float64
	addMLP := func(names []layerNames, in int, widths, ranks []int) int {
		for i, w := range widths {
			rank := ranks[i]
			n := names[i]
			if rank < w && rank < in {
				arch.DenseOp(g.Push(), n.u, b, in, rank, dt)
				arch.DenseOp(g.Push(), n.v, b, rank, w, dt)
				denseParams += float64(in*rank + rank*w + w)
			} else {
				arch.DenseOp(g.Push(), n.dense, b, in, w, dt)
				denseParams += float64(in*w + w)
			}
			arch.ElementwiseOp(g.Push(), n.relu, b*w, 1, dt)
			in = w
		}
		return in
	}
	bottomOut := 0
	if cfg.NumDense > 0 && len(ar.BottomWidths) > 0 {
		bottomOut = addMLP(d.bottomNames, cfg.NumDense, ar.BottomWidths, ar.BottomRanks)
	}
	concatWidth := bottomOut + embOut
	if concatWidth == 0 {
		concatWidth = 1
	}
	arch.ConcatOp(g.Push(), "interact", b*concatWidth, dt)
	topOut := addMLP(d.topNames, concatWidth, ar.TopWidths, ar.TopRanks)
	arch.DenseOp(g.Push(), "logit", b, topOut, 1, dt)
	denseParams += float64(topOut + 1)

	if cfg.Chips > 1 {
		// Dense parameters are data-parallel and all-reduced every step;
		// embedding tables are model-parallel (sharded), so their
		// gradients stay local.
		arch.AllReduceOp(g.Push(), "grad_sync", denseParams*float64(dt))
	}
	g.Params = embParams + denseParams
}

func roundUpTo8(v int) int {
	if v < 8 {
		return 8
	}
	return (v + 7) / 8 * 8
}
