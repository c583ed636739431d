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

// Search runs the search. Shards execute in-process only: a non-nil
// cfg.Transport (typed to the DLRM super-network) is rejected.
func (s *Searcher) Search(cfg core.Config) (*Result, error) {
	if s.VS == nil || s.Reward == nil || s.Perf == nil || s.Stream == nil {
		return nil, fmt.Errorf("vitnet: Searcher requires VS, Reward, Perf and Stream")
	}
	if cfg.Transport != nil {
		return nil, fmt.Errorf("vitnet: Config.Transport is not supported: remote shard transports serve the DLRM super-network only")
	}
	eng := core.Engine[*datapipe.SeqBatch, *Supernet]{
		Space: s.VS.Space, Reward: s.Reward, Perf: s.Perf, Stream: s.Stream,
		Build: func(rng *tensor.RNG, shards int) (*Supernet, []*Supernet) {
			seqCfg := s.Stream.Config()
			master := New(s.VS, seqCfg.Vocab, seqCfg.SeqLen, rng.Split())
			replicas := make([]*Supernet, shards)
			for i := range replicas {
				replicas[i] = master.Replicate(rng.Split())
			}
			return master, replicas
		},
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
