package hwsim

import (
	"fmt"
	"math"

	"h2onas/internal/arch"
)

// Mode selects forward-only (serving) or forward+backward+gradient-sync
// (training) simulation.
type Mode int

const (
	// Inference simulates a forward pass.
	Inference Mode = iota
	// Training simulates forward + backward + gradient all-reduce.
	Training
)

// Options configures a simulation run.
type Options struct {
	Mode Mode
	// Chips is the number of data-parallel chips the caller simulates
	// for. Simulate does not read it: the gradient all-reduce time comes
	// from the graph's AllReduce op, whose NetworkBytes the builder sized.
	Chips int
	// DisableFusion turns off the compiler op-fusion pass, exposing every
	// elementwise op's HBM round-trip (useful for ablation).
	DisableFusion bool
	// Trace records per-op timing when true.
	Trace bool
}

// backwardFactor scales forward compute/traffic to forward+backward:
// backward recomputes one gradient w.r.t. inputs and one w.r.t. weights.
const backwardFactor = 3.0

// cmemActFraction is the fraction of CMEM the compiler budgets for
// activation staging (the rest holds weights/buffers).
const cmemActFraction = 0.35

// allReduceOverlap is the fraction of gradient all-reduce hidden under
// backward compute by the compiler's overlapping scheduler.
const allReduceOverlap = 0.6

// OpTrace is one op's simulated cost breakdown.
type OpTrace struct {
	Name        string
	Kind        arch.Kind
	ComputeTime float64
	MemoryTime  float64
	Time        float64
	HBMBytes    float64
	CMEMBytes   float64
}

// Result is the simulation outcome for one step (training) or one batch
// (inference) on one chip.
type Result struct {
	// StepTime is the end-to-end time: max(DenseTime, EmbedTime) for
	// graphs with an embedding phase (DLRM's pipelined execution,
	// Figure 8), plus any non-overlapped gradient sync.
	StepTime float64
	// DenseTime is the dense-compute phase (MXU/VPU ops).
	DenseTime float64
	// EmbedTime is the embedding phase (gathers + all-to-all).
	EmbedTime float64
	// SyncTime is the non-overlapped part of gradient all-reduce.
	SyncTime float64

	// Busy-time accounting.
	MXUTime, VPUTime, MemTime, NetTime float64

	// Traffic.
	HBMBytes, CMEMBytes, NetworkBytes float64

	// FLOPs is total floating-point work simulated (after the training
	// multiplier, when applicable).
	FLOPs float64

	// Power in watts and Energy in joules for the step.
	Power, Energy float64

	PerOp []OpTrace
}

// AchievedFLOPS is the compute rate FLOPs/StepTime.
func (r Result) AchievedFLOPS() float64 {
	if r.StepTime <= 0 {
		return 0
	}
	return r.FLOPs / r.StepTime
}

// MemoryBandwidth is the total achieved memory bandwidth
// (HBM+CMEM bytes)/StepTime.
func (r Result) MemoryBandwidth() float64 {
	if r.StepTime <= 0 {
		return 0
	}
	return (r.HBMBytes + r.CMEMBytes) / r.StepTime
}

// CMEMBandwidthUsed is achieved CMEM bytes/StepTime.
func (r Result) CMEMBandwidthUsed() float64 {
	if r.StepTime <= 0 {
		return 0
	}
	return r.CMEMBytes / r.StepTime
}

// mxuEfficiency models how much of MXU peak an op of a given kind and size
// attains: a per-kind ceiling (systolic array mapping quality) scaled by a
// pipeline-fill ramp that penalizes small ops.
func mxuEfficiency(kind arch.Kind, flops float64, chip *Chip) float64 {
	var ceiling float64
	switch kind {
	case arch.Conv2D:
		ceiling = 0.80
	case arch.Dense:
		ceiling = 0.72
	case arch.BatchMatMul:
		ceiling = 0.60
	default:
		ceiling = 0.6
	}
	// Work needed to amortize pipeline fill: ~2 µs of peak compute.
	ramp := chip.PeakMXUFLOPS * 2e-6
	return ceiling * flops / (flops + ramp)
}

const vpuEfficiency = 0.8

// Simulate walks the graph and returns the per-chip step cost under opts.
func Simulate(g *arch.Graph, chip Chip, opts Options) Result {
	if ins := simInstruments.Load(); ins != nil {
		ins.simCalls.Inc()
		defer ins.simLatency.Start().End()
	}
	if err := g.Validate(); err != nil {
		panic(fmt.Sprintf("hwsim: %v", err))
	}
	cmemAct := chip.CMEMCapacity * cmemActFraction

	trainMul := 1.0
	if opts.Mode == Training {
		trainMul = backwardFactor
	}

	var res Result
	for i := 0; i < len(g.Ops); {
		// The compiler's fusion pass: op absorbs the fusable elementwise
		// ops that follow it at its repeat count, unless it is a
		// collective. Their FLOPs move into op's kernel epilogue and
		// their parameters into op's; the intermediate tensor round-trip
		// disappears (it lives in registers/CMEM inside the fused
		// kernel). A fusable op with no producer is kept as-is.
		op := &g.Ops[i]
		rep := op.Repeat()
		opFLOPs, paramBytes := op.FLOPs, op.ParamBytes
		fuse := !opts.DisableFusion && op.Unit != arch.NetworkUnit
		for i++; fuse && i < len(g.Ops) && g.Ops[i].Fusable && g.Ops[i].Repeat() == rep; i++ {
			opFLOPs += g.Ops[i].FLOPs * vpuFusePenalty(op.Unit)
			paramBytes += g.Ops[i].ParamBytes
		}

		switch op.Unit {
		case arch.NetworkUnit:
			t := op.NetworkBytes * trainMul / chip.ICIBandwidth * rep
			if op.Kind == arch.AllReduce {
				// Gradient sync is a training-only collective, partially
				// overlapped with backward compute.
				if opts.Mode == Training {
					res.SyncTime += t / trainMul * (1 - allReduceOverlap)
					res.NetTime += t / trainMul
					res.NetworkBytes += op.NetworkBytes * rep
				}
				continue
			}
			res.EmbedTime += t
			res.NetTime += t
			res.NetworkBytes += op.NetworkBytes * trainMul * rep
			continue
		}

		flops := opFLOPs * trainMul
		var computeT float64
		switch op.Unit {
		case arch.MXU:
			computeT = flops / (chip.PeakMXUFLOPS * mxuEfficiency(op.Kind, opFLOPs, &chip))
			res.MXUTime += computeT * rep
		case arch.VPU:
			computeT = flops / (chip.PeakVPUFLOPS * vpuEfficiency)
			res.VPUTime += computeT * rep
		case arch.MemoryUnit:
			// Pure data movement; compute is negligible.
			computeT = flops / (chip.PeakVPUFLOPS * vpuEfficiency)
		}

		// Memory placement: activations that fit in the CMEM staging
		// budget stay on chip; larger tensors spill to HBM. Weights
		// stream from HBM every step. Embedding gathers always read the
		// HBM-resident table regardless of size.
		actBytes := (op.InputBytes + op.OutputBytes) * trainMul
		var hbm, cmem float64
		if op.Kind != arch.EmbeddingLookup &&
			chip.CMEMCapacity > 0 && op.InputBytes+op.OutputBytes <= cmemAct {
			cmem = actBytes
		} else {
			hbm = actBytes
		}
		hbm += paramBytes * trainMul
		memT := hbm/chip.HBMBandwidth + cmem/chip.CMEMBandwidth

		t := math.Max(computeT, memT) + chip.OpOverhead
		t *= rep
		res.MemTime += memT * rep
		res.HBMBytes += hbm * rep
		res.CMEMBytes += cmem * rep
		res.FLOPs += flops * rep
		if op.Kind == arch.EmbeddingLookup {
			res.EmbedTime += t
		} else {
			res.DenseTime += t
		}
		if opts.Trace {
			res.PerOp = append(res.PerOp, OpTrace{
				Name: op.Name, Kind: op.Kind,
				ComputeTime: computeT, MemoryTime: memT, Time: t,
				HBMBytes: hbm * rep, CMEMBytes: cmem * rep,
			})
		}
	}

	// DLRM-style pipelining: the embedding phase (gathers + all-to-all)
	// overlaps with dense compute; the step takes the longer of the two
	// (Figure 8: "training step time is MAX(embedding, DNN)").
	res.StepTime = math.Max(res.DenseTime, res.EmbedTime) + res.SyncTime

	res.Power = power(&chip, &res)
	res.Energy = res.Power * res.StepTime
	return res
}

// vpuFusePenalty converts fused elementwise FLOPs into producer-unit FLOPs
// so the merged op's single FLOPs number remains meaningful: epilogue math
// on an MXU op is essentially free (hidden under the systolic drain), and
// cheap on a VPU op.
func vpuFusePenalty(producer arch.Unit) float64 {
	if producer == arch.MXU {
		return 0.05
	}
	return 0.5
}

// power evaluates the utilization-based power model for one step.
func power(chip *Chip, r *Result) float64 {
	if r.StepTime <= 0 {
		return chip.IdlePower
	}
	util := func(busy float64) float64 {
		u := busy / r.StepTime
		if u > 1 {
			u = 1
		}
		return u
	}
	hbmUtil := r.HBMBytes / (chip.HBMBandwidth * r.StepTime)
	if hbmUtil > 1 {
		hbmUtil = 1
	}
	cmemUtil := 0.0
	if chip.CMEMBandwidth > 0 {
		cmemUtil = r.CMEMBytes / (chip.CMEMBandwidth * r.StepTime)
		if cmemUtil > 1 {
			cmemUtil = 1
		}
	}
	netUtil := 0.0
	if chip.ICIBandwidth > 0 {
		netUtil = r.NetworkBytes / (chip.ICIBandwidth * r.StepTime)
		if netUtil > 1 {
			netUtil = 1
		}
	}
	return chip.IdlePower +
		chip.MXUPower*util(r.MXUTime) +
		chip.VPUPower*util(r.VPUTime) +
		chip.HBMPower*hbmUtil +
		chip.CMEMPower*cmemUtil +
		chip.ICIPower*netUtil
}

// TrainingThroughput returns examples/second/chip for a training step of
// the graph (batch per chip divided by step time).
func TrainingThroughput(g *arch.Graph, chip Chip, chips int) float64 {
	r := Simulate(g, chip, Options{Mode: Training, Chips: chips})
	if r.StepTime <= 0 {
		return 0
	}
	return float64(g.Batch) / r.StepTime
}
