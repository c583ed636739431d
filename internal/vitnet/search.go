package vitnet

import (
	"fmt"

	"h2onas/internal/core"
	"h2onas/internal/datapipe"
	"h2onas/internal/reward"
	"h2onas/internal/space"
	"h2onas/internal/tensor"
)

// Searcher runs the unified single-step parallel search over the pure
// transformer space with a live super-network — core's step engine
// against sequence traffic, so checkpoint/Resume, Stop, the shard-fault
// policy and the prefetch pipeline behave exactly as for core.Searcher.
type Searcher struct {
	VS     *space.ViTSpace
	Reward *reward.Function
	Perf   core.PerfFunc
	Stream *datapipe.SeqStream
}

// Result is the outcome of a transformer search.
type Result struct {
	core.Outcome
	// BestArch is Best decoded.
	BestArch space.ViTArch
}

// Search runs the search.
func (s *Searcher) Search(cfg core.Config) (*Result, error) {
	if s.VS == nil || s.Reward == nil || s.Perf == nil || s.Stream == nil {
		return nil, fmt.Errorf("vitnet: Searcher requires VS, Reward, Perf and Stream")
	}
	seqCfg := s.Stream.Config()
	eng := core.Engine[*datapipe.SeqBatch, *Supernet]{
		Space: s.VS.Space, Reward: s.Reward, Perf: s.Perf, Stream: s.Stream,
		New: func(rng *tensor.RNG) *Supernet { return New(s.VS, seqCfg.Vocab, seqCfg.SeqLen, rng) },
	}
	out, err := eng.Search(cfg)
	if out == nil {
		return nil, err
	}
	res := &Result{Outcome: *out}
	if err == nil {
		res.BestArch = s.VS.Decode(res.Best)
	}
	return res, err
}
