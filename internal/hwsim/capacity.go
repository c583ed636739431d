package hwsim

import "h2onas/internal/arch"

// MemoryFootprint is a model's accelerator-memory requirement — the
// "memory capacity" constraint that production launches impose alongside
// throughput and latency (Section 6.1).
type MemoryFootprint struct {
	// ParamBytes is the resident parameter memory.
	ParamBytes float64
	// OptimizerBytes is optimizer state (gradients + two Adam moments in
	// training; zero for inference).
	OptimizerBytes float64
	// ActivationBytes is peak activation memory: the largest single op's
	// live tensors for inference, the sum of stored activations for
	// training (everything is kept for the backward pass).
	ActivationBytes float64
	// Total sums the components.
	Total float64
}

// Footprint computes the memory footprint of a graph under opts.
func Footprint(g *arch.Graph, opts Options) MemoryFootprint {
	var f MemoryFootprint
	f.ParamBytes = g.TotalParamBytes()
	if opts.Mode == Training {
		// Gradients plus Adam's first and second moments.
		f.OptimizerBytes = 3 * f.ParamBytes
		for i := range g.Ops {
			f.ActivationBytes += g.Ops[i].OutputBytes * g.Ops[i].Repeat()
		}
	} else {
		for i := range g.Ops {
			if live := g.Ops[i].InputBytes + g.Ops[i].OutputBytes; live > f.ActivationBytes {
				f.ActivationBytes = live
			}
		}
	}
	f.Total = f.ParamBytes + f.OptimizerBytes + f.ActivationBytes
	return f
}

// FitsMemory reports whether the graph's footprint fits the chip's HBM,
// and returns the footprint for reporting. Embedding-table capacity is
// carried by Graph.Params (tables are counted in parameters), so sharded
// DLRMs should be checked with the per-chip shard graph.
func FitsMemory(g *arch.Graph, chip Chip, opts Options) (bool, MemoryFootprint) {
	f := Footprint(g, opts)
	return f.Total <= chip.HBMCapacity, f
}

// ScalingPoint is one point of a data-parallel scaling curve.
type ScalingPoint struct {
	Chips int
	// PerChipBatch is the global batch divided across chips.
	PerChipBatch int
	// StepTime is the simulated per-step time.
	StepTime float64
	// Throughput is global examples/second.
	Throughput float64
	// Efficiency is throughput relative to perfect linear scaling from
	// the first point.
	Efficiency float64
}

// ScalingCurve simulates data-parallel training of the model across chip
// counts at a fixed global batch: as chips grow, the per-chip batch
// shrinks (losing per-chip efficiency) while gradient all-reduce stays —
// the classic strong-scaling trade-off hyperscale training navigates.
// build must construct the per-chip graph including its AllReduce op.
func ScalingCurve(build GraphBuilder, chip Chip, globalBatch int, chipCounts []int) []ScalingPoint {
	var out []ScalingPoint
	var basePerChip float64
	for _, n := range chipCounts {
		if n <= 0 {
			continue
		}
		perChip := globalBatch / n
		if perChip < 1 {
			perChip = 1
		}
		g := build(perChip)
		r := Simulate(g, chip, Options{Mode: Training, Chips: n})
		tput := float64(perChip*n) / r.StepTime
		p := ScalingPoint{
			Chips:        n,
			PerChipBatch: perChip,
			StepTime:     r.StepTime,
			Throughput:   tput,
		}
		perChipTput := tput / float64(n)
		if basePerChip == 0 {
			basePerChip = perChipTput
		}
		p.Efficiency = perChipTput / basePerChip
		out = append(out, p)
	}
	return out
}
