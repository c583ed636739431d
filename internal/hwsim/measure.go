package hwsim

import (
	"math"

	"h2onas/internal/arch"
)

// Measure simulates *measuring* the graph on real hardware rather than
// predicting it: the simulator's estimate is warped by the chip's
// systematic silicon gap (compiler scheduling, DMA contention, runtime
// interference that the analytical model does not capture) plus a small
// architecture-dependent systematic term and bounded measurement noise.
//
// The gap is deliberately smooth and mostly multiplicative so that — as in
// the paper (Table 1) — a performance model pretrained on Simulate data
// has double-digit NRMSE against Measure data, while fine-tuning on O(20)
// Measure samples recovers 1–3 %.
func Measure(g *arch.Graph, chip Chip, opts Options, seed uint64) Result {
	if ins := simInstruments.Load(); ins != nil {
		ins.measureCalls.Inc()
	}
	r := Simulate(g, chip, opts)
	warp, h := gapAndHash(g, chip)
	noise := 1 + 0.01*signedHashUnit(h^seed)
	scale := warp * noise
	r.StepTime *= scale
	r.DenseTime *= scale
	r.EmbedTime *= scale
	r.SyncTime *= scale
	r.Energy = r.Power * r.StepTime
	return r
}

// gapAndHash walks the graph once for two facts. warp is the systematic
// simulator→hardware gap for this graph on this chip: the chip's base
// gap, amplified for memory-dominated graphs (DMA scheduling is where
// analytical models err most) and slightly for very op-rich graphs
// (runtime dispatch). h is a stable fingerprint of the graph's structure,
// so that measurement noise is reproducible per architecture.
func gapAndHash(g *arch.Graph, chip Chip) (warp float64, h uint64) {
	base := chip.SiliconGap
	if base == 0 {
		base = 1.25
	}
	h = 1469598103934665603 // FNV offset basis
	mix := func(v uint64) {
		h ^= v
		h *= 1099511628211
	}
	mix(uint64(g.Batch))
	var memOps, totalOps float64
	for i := range g.Ops {
		op := &g.Ops[i]
		totalOps += op.Repeat()
		if op.Unit == arch.MemoryUnit || op.Unit == arch.NetworkUnit {
			memOps += op.Repeat()
		}
		mix(math.Float64bits(op.FLOPs))
		mix(math.Float64bits(op.InputBytes))
		mix(uint64(op.Kind))
	}
	memFrac := 0.0
	if totalOps > 0 {
		memFrac = memOps / totalOps
	}
	return base * (1 + 0.18*memFrac) * (1 + 0.01*math.Log1p(totalOps)/10), h
}

// signedHashUnit maps a hash to a deterministic value in [-1, 1).
func signedHashUnit(h uint64) float64 {
	// SplitMix-style finalizer for diffusion.
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	return float64(h>>11)/(1<<52) - 1
}
