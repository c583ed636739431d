package datapipe

import (
	"fmt"
	"math"
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
}

// The sequence task's fixed magnitudes: the weight of the per-token
// effects, the weight of the long-range interaction, and the logit noise.
const (
	unaryScale  = 1.6
	pairScale   = 0.7
	seqNoiseStd = 0.2
)

// DefaultSeqConfig matches the small transformer search configuration.
func DefaultSeqConfig() SeqConfig {
	return SeqConfig{SeqLen: 8, Vocab: 64}
}

// SeqBatch is one batch of token sequences with binary labels, under the
// same α-before-W guard as Batch.
type SeqBatch struct {
	Tokens [][]int        // [example][position]
	Labels *tensor.Matrix // batch×1

	phaseGuard
	labels tensor.Matrix // what Labels points to
}

// Size returns the number of examples.
func (b *SeqBatch) Size() int { return len(b.Tokens) }

// SeqStream generates endless, never-repeating synthetic sequence traffic.
// Its per-(token, position) and per-pair effects are memoized like
// Stream's, each memo within the same 4 MiB bound.
type SeqStream struct {
	cfg  SeqConfig
	seed uint64
	cursor

	sqrtLen float64 // √SeqLen, the unary effects' normalizer
	// unary memoizes unaryEffect at tok·SeqLen + pos, pair pairEffect at
	// a·Vocab + b.
	unary, pair memo
}

// NewSeqStream returns a stream with the given seed.
func NewSeqStream(cfg SeqConfig, seed uint64) *SeqStream {
	if cfg.SeqLen <= 0 || cfg.Vocab <= 1 {
		panic(fmt.Sprintf("datapipe: invalid sequence config %+v", cfg))
	}
	return &SeqStream{
		cfg: cfg, seed: seed, cursor: cursor{rng: tensor.NewRNG(seed)},
		sqrtLen: math.Sqrt(float64(cfg.SeqLen)),
		unary:   newMemo(cfg.Vocab * cfg.SeqLen),
		pair:    newMemo(cfg.Vocab * cfg.Vocab),
	}
}

// Config returns the generator configuration.
func (s *SeqStream) Config() SeqConfig { return s.cfg }

// NextBatch generates n fresh sequences; their tokens share one backing
// array, and the label matrix header lives in the batch itself.
func (s *SeqStream) NextBatch(n int) *SeqBatch { return s.NextBatchInto(nil, n) }

// NextBatchInto is NextBatch writing into b when it holds n sequences
// (see Stream.NextBatchInto).
func (s *SeqStream) NextBatchInto(b *SeqBatch, n int) *SeqBatch {
	rng := s.split(n)

	cfg := s.cfg
	if b == nil || b.Size() != n {
		b = &SeqBatch{Tokens: make([][]int, n), labels: tensor.Matrix{Rows: n, Cols: 1, Data: make([]float64, n)}}
		b.Labels = &b.labels
		all := make([]int, n*cfg.SeqLen)
		for i := range b.Tokens {
			b.Tokens[i] = all[i*cfg.SeqLen : (i+1)*cfg.SeqLen : (i+1)*cfg.SeqLen]
		}
	} else {
		b.phaseGuard = phaseGuard{}
		clear(b.Labels.Data)
	}
	for i := 0; i < n; i++ {
		toks := b.Tokens[i]
		logit := 0.0
		for t := range toks {
			tok := rng.Intn(cfg.Vocab)
			toks[t] = tok
			logit += s.unaryEffect(tok, t)
		}
		logit += s.pairEffect(toks[0], toks[cfg.SeqLen-1])
		logit += rng.Norm() * seqNoiseStd
		if rng.Float64() < sigmoid(logit) {
			b.Labels.Data[i] = 1
		}
	}
	atomic.AddInt64(&s.served, int64(n))
	return b
}

// unaryEffect is the ground-truth per-token effect: a dominant
// position-independent part (learnable by token embeddings alone) plus a
// small position modulation (needs token/position mixing).
func (s *SeqStream) unaryEffect(tok, pos int) float64 {
	key := tok*s.cfg.SeqLen + pos
	if v, ok := s.unary.load(key); ok {
		return v
	}
	base := gaussFromHash(hash3(s.seed, 0x100, uint64(tok)+1))
	mod := gaussFromHash(hash3(s.seed, 0x110+uint64(pos), uint64(tok)+1))
	v := (base + 0.3*mod) * unaryScale / s.sqrtLen
	s.unary.store(key, v)
	return v
}

// pairEffect is the ground-truth long-range interaction between the first
// and last tokens.
func (s *SeqStream) pairEffect(a, b int) float64 {
	key := a*s.cfg.Vocab + b
	if v, ok := s.pair.load(key); ok {
		return v
	}
	v := gaussFromHash(hash3(s.seed, 0x200+uint64(a), uint64(b)+1)) * pairScale
	s.pair.store(key, v)
	return v
}
