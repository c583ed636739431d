package experiments

import (
	"fmt"

	"h2onas/internal/arch"
	"h2onas/internal/hwsim"
)

// Fig4Roofline regenerates Figure 4b and 4c: MBConv vs fused MBConv on
// TPUv4i — operational intensity, achieved FLOPS, and latency at channel
// depths 32/64/128. The shape to reproduce: fused blocks always achieve
// higher FLOPS (4b), but win on latency only at shallow depth — at depth
// 128 the unfused MBConv is faster despite its lower intensity (4c).
func Fig4Roofline() *Report {
	r := newReport("fig4", "Roofline and latency of MBConv vs F-MBConv on TPUv4i",
		"block", "op intensity (FLOPs/B)", "achieved TFLOPS", "latency (ms)", "total GFLOPs", "bound")
	chip := hwsim.TPUv4i()

	point := func(fused bool, c int) hwsim.RooflinePoint {
		spec := arch.MBConvSpec{
			Fused: fused, In: c, Out: c,
			Kernel: 3, Stride: 1, Expansion: 6, Act: "relu",
			H: 28, W: 28, Batch: 128, DType: 2,
		}
		name := blockName(fused, c)
		g := &arch.Graph{Name: name, Batch: 128, DTypeBytes: 2}
		g.PushMBConvStage(spec, arch.StageNames(name, 1), true)
		return hwsim.Roofline(g, chip)
	}

	depths := []int{32, 64, 128}
	pts := map[string]hwsim.RooflinePoint{}
	for _, c := range depths {
		for _, fused := range []bool{false, true} {
			p := point(fused, c)
			pts[p.Name] = p
			r.AddRow(p.Name,
				fmt.Sprintf("%.1f", p.OperationalIntensity),
				fmt.Sprintf("%.1f", p.AchievedFLOPS/1e12),
				fmt.Sprintf("%.3f", p.Latency*1e3),
				fmt.Sprintf("%.1f", p.TotalFLOPs/1e9),
				p.Bound)
		}
	}
	r.AddRow("ridge point", fmt.Sprintf("%.1f", hwsim.RidgePoint(chip)), fmt.Sprintf("%.1f", chip.PeakMXUFLOPS/1e12), "-", "-", "-")

	// Headline metrics: the Figure 4 orderings.
	r.Metrics["fmbc32_latency_ratio"] = pts[blockName(true, 32)].Latency / pts[blockName(false, 32)].Latency
	r.Metrics["fmbc128_latency_ratio"] = pts[blockName(true, 128)].Latency / pts[blockName(false, 128)].Latency
	r.Metrics["fmbc32_flops_ratio"] = pts[blockName(true, 32)].AchievedFLOPS / pts[blockName(false, 32)].AchievedFLOPS
	r.Metrics["fmbc128_flops_ratio"] = pts[blockName(true, 128)].AchievedFLOPS / pts[blockName(false, 128)].AchievedFLOPS

	r.AddNote("paper Fig 4b: F-MBConv always has higher operational intensity and FLOPS — measured FLOPS ratios %.2f (32) and %.2f (128), both > 1",
		r.Metrics["fmbc32_flops_ratio"], r.Metrics["fmbc128_flops_ratio"])
	r.AddNote("paper Fig 4c: F-MBC(32) faster (latency ratio %.2f < 1) but F-MBC(128) slower (ratio %.2f > 1) — the crossover NAS exploits",
		r.Metrics["fmbc32_latency_ratio"], r.Metrics["fmbc128_latency_ratio"])
	return r
}

func blockName(fused bool, c int) string {
	if fused {
		return fmt.Sprintf("F-MBC(%d)", c)
	}
	return fmt.Sprintf("MBC(%d)", c)
}
