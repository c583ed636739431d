// Package datapipe implements H₂O-NAS's pure in-memory data pipeline
// (Section 3 ①, Section 4.1). Production traffic cannot be persisted to
// non-volatile media or examined by humans, so the pipeline streams
// synthetic click-through examples straight from a generator into bounded
// in-memory buffers, hands every example out exactly once, and enforces
// the ordering invariant that makes the unified single-step search sound:
// each batch must be used for learning architecture choices α *before* it
// is used for training shared weights W.
//
// The synthetic CTR task substitutes for live production traffic (see
// DESIGN.md): sparse categorical features carry memorization signal whose
// recoverability depends on embedding width and vocabulary size, dense
// features carry non-linear generalization signal whose recoverability
// depends on MLP capacity — so the search optimizes a real
// quality/architecture dependence.
package datapipe

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"h2onas/internal/tensor"
)

// CTRConfig parameterizes the synthetic click-through generator.
type CTRConfig struct {
	NumTables int // sparse features
	Vocab     int // ids per sparse feature
	NumDense  int // dense features
	BagSize   int // ids per example per feature

	// SignalDecay controls how informative successive tables are: table t
	// has latent-effect scale signalScale·SignalDecay^t, so early tables
	// matter and late tables are mostly noise (the structure that lets
	// the search shrink or drop uninformative tables). 0 means 0.75.
	SignalDecay float64

	// DriftPeriod makes the traffic non-stationary: every DriftPeriod
	// examples, the latent per-id effects rotate toward a fresh table
	// (linear interpolation within the period). 0 disables drift. This
	// models the evolving production distributions that motivate
	// searching on real-time traffic instead of frozen datasets
	// (Section 3, "Design for Deployment").
	DriftPeriod int64
}

// The generator's fixed magnitudes: the latent-effect scale of table 0
// and the label noise on the logit (the dense signal has unit scale).
const (
	signalScale = 1.2
	noiseStd    = 0.25
)

func (c CTRConfig) withDefaults() CTRConfig {
	if c.SignalDecay == 0 {
		c.SignalDecay = 0.75
	}
	if c.BagSize == 0 {
		c.BagSize = 1
	}
	return c
}

// phaseGuard enforces the α-before-W invariant on the batch that embeds
// it: UseForArch must be called before UseForWeights.
type phaseGuard struct {
	phase int32 // 0 fresh, 1 arch-learned, 2 weights-trained
}

// UseForArch marks the batch as consumed by architecture learning
// (reward evaluation). It panics if weights were already trained on it —
// that would be the information leak the pipeline exists to prevent.
func (g *phaseGuard) UseForArch() {
	for {
		p := atomic.LoadInt32(&g.phase)
		if p >= 2 {
			panic("datapipe: batch used for architecture learning after weight training (α must precede W)")
		}
		if atomic.CompareAndSwapInt32(&g.phase, p, 1) {
			return
		}
	}
}

// UseForWeights marks the batch as consumed by weight training. It panics
// unless UseForArch happened first, enforcing the single-step ordering.
func (g *phaseGuard) UseForWeights() {
	if !atomic.CompareAndSwapInt32(&g.phase, 1, 2) {
		panic("datapipe: batch must be used for architecture learning before weight training")
	}
}

// cursor is the position of the stream that embeds it: the parent
// generator every batch splits its own generator from, and the count of
// examples handed out.
type cursor struct {
	mu     sync.Mutex
	rng    *tensor.RNG
	served int64
}

// split draws the generator of the next batch of n examples — the one
// value a batch takes from the parent, which is what lets Skip stand in
// for a whole batch.
func (c *cursor) split(n int) tensor.RNG {
	if n <= 0 {
		panic("datapipe: NextBatch with non-positive size")
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return *c.rng.Split()
}

// ExamplesServed returns how many examples have been generated.
func (c *cursor) ExamplesServed() int64 { return atomic.LoadInt64(&c.served) }

// Skip advances the stream past nBatches batches of batchSize examples
// each without generating them. It has exactly the effect on the
// generator state that nBatches NextBatch(batchSize) calls would have, at
// O(1) cost per batch — the fast-forward primitive checkpoint resume uses
// to reposition a fresh stream at a run's consumed-batch frontier.
func (c *cursor) Skip(nBatches int64, batchSize int) {
	if nBatches < 0 || batchSize <= 0 {
		panic(fmt.Sprintf("datapipe: Skip(%d, %d) with negative batches or non-positive size", nBatches, batchSize))
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for i := int64(0); i < nBatches; i++ {
		c.rng.Uint64()
	}
	atomic.AddInt64(&c.served, nBatches*int64(batchSize))
}

// Batch is one batch of training examples, guarded so it is used for
// learning α before it trains W.
type Batch struct {
	Dense  *tensor.Matrix // batch×NumDense
	Sparse [][][]int      // [table][example][bag ids]
	Labels *tensor.Matrix // batch×1, {0,1}

	phaseGuard
	dense, labels tensor.Matrix // what Dense and Labels point to
}

// Size returns the number of examples.
func (b *Batch) Size() int { return b.Dense.Rows }

// Stream generates an endless, never-repeating sequence of synthetic CTR
// examples. Latent per-id effects are hash-derived, so two streams with the
// same seed produce identical populations. The stationary effect of each
// (table, id) is memoized on first use; the memo holds 8 bytes per entry
// for at most min(NumTables·Vocab, 2¹⁹) entries, so a stream never holds
// more than 4 MiB of it whatever the vocabulary (ids past the bound are
// recomputed per use).
type Stream struct {
	cfg  CTRConfig
	seed uint64
	cursor

	// The ground truth's per-stream constants: the dense signal's linear
	// and pairwise weights and each table's effect scale.
	denseW, pairW []float64
	tableScale    []float64
	// effects memoizes the stationary effect of (table, id) at
	// id·NumTables + table.
	effects memo
}

// NewStream returns a stream with the given seed.
func NewStream(cfg CTRConfig, seed uint64) *Stream {
	cfg = cfg.withDefaults()
	if cfg.NumTables <= 0 || cfg.Vocab <= 0 || cfg.NumDense < 0 {
		panic(fmt.Sprintf("datapipe: invalid config %+v", cfg))
	}
	s := &Stream{
		cfg: cfg, seed: seed, cursor: cursor{rng: tensor.NewRNG(seed)},
		denseW:     make([]float64, cfg.NumDense),
		pairW:      make([]float64, cfg.NumDense/2),
		tableScale: make([]float64, cfg.NumTables),
		effects:    newMemo(cfg.NumTables * cfg.Vocab),
	}
	for j := range s.denseW {
		s.denseW[j] = gaussFromHash(hash3(seed, 0x10, uint64(j))) * 0.4
	}
	for j := range s.pairW {
		s.pairW[j] = gaussFromHash(hash3(seed, 0x20, uint64(2*j))) * 0.5
	}
	for t := range s.tableScale {
		s.tableScale[t] = signalScale * math.Pow(cfg.SignalDecay, float64(t))
	}
	return s
}

// Config returns the stream's generator configuration.
func (s *Stream) Config() CTRConfig { return s.cfg }

// NextBatch generates n fresh examples. Every call produces new examples;
// nothing is ever replayed (the use-once property of production traffic).
// The batch's dense values and labels share one backing array, its bags
// another, and the two matrix headers live in the batch itself.
func (s *Stream) NextBatch(n int) *Batch { return s.NextBatchInto(nil, n) }

// NextBatchInto is NextBatch writing the examples into b, a batch of this
// stream its consumer is done with, when b holds n of them, and into a
// new batch otherwise (b nil always takes a new one). It returns the
// batch written; everything b held is overwritten and its phase guard
// starts fresh, so the examples are those NextBatch would have drawn.
func (s *Stream) NextBatchInto(b *Batch, n int) *Batch {
	rng := s.split(n)

	cfg := s.cfg
	if b == nil || b.Size() != n {
		b = s.newBatch(n)
	} else {
		b.phaseGuard = phaseGuard{}
		clear(b.Labels.Data)
	}
	startIndex := atomic.LoadInt64(&s.served)
	for i := 0; i < n; i++ {
		logit := 0.0
		drow := b.Dense.Row(i)
		for j := range drow {
			drow[j] = rng.Norm()
		}
		logit += s.denseSignal(drow)
		for t := 0; t < cfg.NumTables; t++ {
			bag := b.Sparse[t][i]
			var eff float64
			for k := range bag {
				id := rng.Intn(cfg.Vocab)
				bag[k] = id
				eff += s.effectAt(t, id, startIndex+int64(i))
			}
			logit += eff / float64(cfg.BagSize)
		}
		logit += rng.Norm() * noiseStd
		if rng.Float64() < sigmoid(logit) {
			b.Labels.Data[i] = 1
		}
	}
	atomic.AddInt64(&s.served, int64(n))
	return b
}

// newBatch allocates the storage of an n-example batch, every bag in
// place in the shared id array.
func (s *Stream) newBatch(n int) *Batch {
	cfg := s.cfg
	nd := n * cfg.NumDense
	floats := make([]float64, nd+n)
	rows := make([][]int, cfg.NumTables*n)
	ids := make([]int, cfg.NumTables*n*cfg.BagSize)
	b := &Batch{
		Sparse: make([][][]int, cfg.NumTables),
		dense:  tensor.Matrix{Rows: n, Cols: cfg.NumDense, Data: floats[:nd:nd]},
		labels: tensor.Matrix{Rows: n, Cols: 1, Data: floats[nd:]},
	}
	b.Dense, b.Labels = &b.dense, &b.labels
	for t := range b.Sparse {
		b.Sparse[t] = rows[t*n : (t+1)*n : (t+1)*n]
		for i := range b.Sparse[t] {
			at := (t*n + i) * cfg.BagSize
			b.Sparse[t][i] = ids[at : at+cfg.BagSize : at+cfg.BagSize]
		}
	}
	return b
}

// epochEffect is the latent per-id effect of table t during drift epoch
// e: a hash-derived Gaussian scaled by the table's informativeness. Epoch
// 0 — the stationary ground truth, the whole stream without drift — goes
// through the memo.
func (s *Stream) epochEffect(table, id int, epoch int64) float64 {
	key := id*s.cfg.NumTables + table
	if epoch == 0 {
		if v, ok := s.effects.load(key); ok {
			return v
		}
	}
	h := hash3(s.seed+uint64(epoch)*0x51_7c_c1_b7_27_22_0a95, uint64(table)+1, uint64(id)+1)
	v := gaussFromHash(h) * s.tableScale[table]
	if epoch == 0 {
		s.effects.store(key, v)
	}
	return v
}

// effectAt is the (possibly drifting) effect at a global example index.
func (s *Stream) effectAt(table, id int, exampleIndex int64) float64 {
	if s.cfg.DriftPeriod <= 0 {
		return s.epochEffect(table, id, 0)
	}
	epoch := exampleIndex / s.cfg.DriftPeriod
	frac := float64(exampleIndex%s.cfg.DriftPeriod) / float64(s.cfg.DriftPeriod)
	return (1-frac)*s.epochEffect(table, id, epoch) + frac*s.epochEffect(table, id, epoch+1)
}

// denseSignal is the ground-truth non-linear dense contribution: linear
// terms, a couple of pairwise interactions, and a sinusoidal term, all
// hash-seeded so MLP capacity determines how much of it a model recovers.
func (s *Stream) denseSignal(x []float64) float64 {
	var v float64
	for j, xj := range x {
		v += s.denseW[j] * xj
	}
	for j := 0; j+1 < len(x); j += 2 {
		v += s.pairW[j/2] * x[j] * x[j+1]
	}
	if len(x) > 0 {
		v += 0.6 * math.Sin(2*x[0]+x[len(x)-1])
	}
	return v
}

// maxMemo bounds a memo's entries: 2¹⁹ × 8 bytes = 4 MiB.
const maxMemo = 1 << 19

// memo lazily caches a deterministic float64 function of a small key for
// keys below its length. It is safe for concurrent use: a cell holds the
// value's bits, or 0 until some caller stores them, and concurrent fills
// store the same bits. A value whose bits are 0 (+0) is simply never
// cached.
type memo []atomic.Uint64

func newMemo(keys int) memo { return make(memo, min(keys, maxMemo)) }

func (m memo) load(key int) (float64, bool) {
	if key >= len(m) {
		return 0, false
	}
	b := m[key].Load()
	return math.Float64frombits(b), b != 0
}

func (m memo) store(key int, v float64) {
	if key < len(m) {
		m[key].Store(math.Float64bits(v))
	}
}

func sigmoid(x float64) float64 {
	if x >= 0 {
		return 1 / (1 + math.Exp(-x))
	}
	e := math.Exp(x)
	return e / (1 + e)
}

func hash3(a, b, c uint64) uint64 {
	h := a*0x9e3779b97f4a7c15 ^ b*0xbf58476d1ce4e5b9 ^ c*0x94d049bb133111eb
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	return h ^ (h >> 31)
}

// gaussFromHash maps a hash to a deterministic standard-normal value.
func gaussFromHash(h uint64) float64 {
	u1 := float64(h>>11)/(1<<53) + 1e-12
	u2 := float64((h*0x9e3779b97f4a7c15)>>11) / (1 << 53)
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}
