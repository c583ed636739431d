package datapipe

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"h2onas/internal/tensor"
)

// SeqConfig parameterizes the synthetic sequence-classification generator
// that stands in for NLP/vision-token traffic when searching transformer
// architectures ("our transformer search space can be used in isolation to
// search for pure VIT or transformer based NLP models", Appendix A).
//
// The task mixes three signals so architecture dimensions matter:
//
//   - unary token effects (hash-derived per (token, position)): learnable
//     by embeddings alone, width-sensitive;
//   - a long-range pair interaction between the tokens at the first and
//     last positions: requires attention (position routing);
//   - label noise bounding attainable quality.
type SeqConfig struct {
	SeqLen int
	Vocab  int

	// UnaryScale weights the per-token effects. 0 means 0.8.
	UnaryScale float64
	// PairScale weights the long-range interaction. 0 means 1.2.
	PairScale float64
	// NoiseStd is logit noise. 0 means 0.25.
	NoiseStd float64
}

// DefaultSeqConfig matches the small transformer search configuration.
func DefaultSeqConfig() SeqConfig {
	return SeqConfig{SeqLen: 8, Vocab: 64}
}

func (c SeqConfig) withDefaults() SeqConfig {
	if c.UnaryScale == 0 {
		c.UnaryScale = 1.6
	}
	if c.PairScale == 0 {
		c.PairScale = 0.7
	}
	if c.NoiseStd == 0 {
		c.NoiseStd = 0.2
	}
	return c
}

// SeqBatch is one batch of token sequences with binary labels. Phase
// tracking enforces the same α-before-W ordering as Batch.
type SeqBatch struct {
	Tokens [][]int        // [example][position]
	Labels *tensor.Matrix // batch×1

	phase int32
}

// Size returns the number of examples.
func (b *SeqBatch) Size() int { return len(b.Tokens) }

// UseForArch marks consumption by architecture learning; it panics after
// weight training (the information leak the pipeline prevents).
func (b *SeqBatch) UseForArch() {
	for {
		p := atomic.LoadInt32(&b.phase)
		if p >= 2 {
			panic("datapipe: sequence batch used for architecture learning after weight training")
		}
		if atomic.CompareAndSwapInt32(&b.phase, p, 1) {
			return
		}
	}
}

// UseForWeights marks consumption by weight training; UseForArch must
// precede it.
func (b *SeqBatch) UseForWeights() {
	if !atomic.CompareAndSwapInt32(&b.phase, 1, 2) {
		panic("datapipe: sequence batch must be used for architecture learning before weight training")
	}
}

// SeqStream generates endless, never-repeating synthetic sequence traffic.
type SeqStream struct {
	cfg  SeqConfig
	seed uint64

	mu     sync.Mutex
	rng    *tensor.RNG
	served int64
}

// NewSeqStream returns a stream with the given seed.
func NewSeqStream(cfg SeqConfig, seed uint64) *SeqStream {
	cfg = cfg.withDefaults()
	if cfg.SeqLen <= 0 || cfg.Vocab <= 1 {
		panic(fmt.Sprintf("datapipe: invalid sequence config %+v", cfg))
	}
	return &SeqStream{cfg: cfg, seed: seed, rng: tensor.NewRNG(seed)}
}

// Config returns the generator configuration.
func (s *SeqStream) Config() SeqConfig { return s.cfg }

// ExamplesServed returns how many examples have been generated.
func (s *SeqStream) ExamplesServed() int64 { return atomic.LoadInt64(&s.served) }

// NextBatch generates n fresh sequences.
func (s *SeqStream) NextBatch(n int) *SeqBatch {
	if n <= 0 {
		panic("datapipe: NextBatch with non-positive size")
	}
	s.mu.Lock()
	rng := s.rng.Split()
	s.mu.Unlock()

	cfg := s.cfg
	b := &SeqBatch{Tokens: make([][]int, n), Labels: tensor.New(n, 1)}
	for i := 0; i < n; i++ {
		toks := make([]int, cfg.SeqLen)
		logit := 0.0
		for t := range toks {
			tok := rng.Intn(cfg.Vocab)
			toks[t] = tok
			logit += s.unaryEffect(tok, t)
		}
		logit += s.pairEffect(toks[0], toks[cfg.SeqLen-1])
		logit += rng.Norm() * cfg.NoiseStd
		b.Tokens[i] = toks
		if rng.Float64() < sigmoid(logit) {
			b.Labels.Data[i] = 1
		}
	}
	atomic.AddInt64(&s.served, int64(n))
	return b
}

// Skip advances the stream past nBatches batches of batchSize sequences
// without generating them — the SeqStream twin of Stream.Skip, with the
// same contract: NextBatch draws exactly one value (the Split) from the
// parent generator, so a skipped stream produces the batches the
// original would have produced next.
func (s *SeqStream) Skip(nBatches int64, batchSize int) {
	if nBatches < 0 || batchSize <= 0 {
		panic(fmt.Sprintf("datapipe: Skip(%d, %d) with negative batches or non-positive size", nBatches, batchSize))
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := int64(0); i < nBatches; i++ {
		s.rng.Uint64()
	}
	atomic.AddInt64(&s.served, nBatches*int64(batchSize))
}

// unaryEffect is the ground-truth per-token effect: a dominant
// position-independent part (learnable by token embeddings alone) plus a
// small position modulation (needs token/position mixing).
func (s *SeqStream) unaryEffect(tok, pos int) float64 {
	base := gaussFromHash(hash3(s.seed, 0x100, uint64(tok)+1))
	mod := gaussFromHash(hash3(s.seed, 0x110+uint64(pos), uint64(tok)+1))
	return (base + 0.3*mod) * s.cfg.UnaryScale / math.Sqrt(float64(s.cfg.SeqLen))
}

// pairEffect is the ground-truth long-range interaction between the first
// and last tokens.
func (s *SeqStream) pairEffect(a, b int) float64 {
	return gaussFromHash(hash3(s.seed, 0x200+uint64(a), uint64(b)+1)) * s.cfg.PairScale
}
