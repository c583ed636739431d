// visionpareto analyses the vision model zoo on simulated datacenter
// accelerators: the CoAtNet-H and EfficientNet-H families against their
// baselines — accuracy vs training throughput, serving latency, power and
// energy (the Figures 6/7/9 and Table 4 views).
//
//	go run ./examples/visionpareto
package main

import (
	"fmt"

	"h2onas"
)

func main() {
	coatnetFamily()
	efficientnetFamily()
}

func coatnetFamily() {
	chip := h2onas.TPUv4()
	fmt.Println("CoAtNet family on TPUv4 (one chip's training step, JFT-300M pretraining):")
	fmt.Printf("%-12s %10s %12s %14s %10s %10s\n",
		"model", "params(M)", "top-1(%)", "img/s/chip", "power(W)", "J/step")
	for i := 0; i <= 5; i++ {
		for _, h := range []bool{false, true} {
			spec := h2onas.CoAtNet(i)
			if h {
				spec = h2onas.CoAtNetH(i)
			}
			g := spec.Graph()
			res := h2onas.Simulate(g, chip, h2onas.SimOptions{Mode: h2onas.Training})
			acc := h2onas.VisionAccuracy(spec.Traits(h2onas.CoAtNet(i)), h2onas.JFT300M)
			fmt.Printf("%-12s %10.0f %12.1f %14.0f %10.0f %10.1f\n",
				spec.Name, g.Params/1e6, acc,
				float64(g.Batch)/res.StepTime, res.Power, res.Energy)
		}
	}
	c5 := h2onas.Simulate(h2onas.CoAtNet(5).Graph(), chip, h2onas.SimOptions{Mode: h2onas.Training})
	h5 := h2onas.Simulate(h2onas.CoAtNetH(5).Graph(), chip, h2onas.SimOptions{Mode: h2onas.Training})
	fmt.Printf("\nCoAtNet-H5 vs CoAtNet-5: %.2fx faster, %.2fx energy (paper: 1.84x, 0.54x)\n\n",
		c5.StepTime/h5.StepTime, h5.Energy/c5.Energy)
}

func efficientnetFamily() {
	fmt.Println("EfficientNet-H serving on TPUv4i (batch 16):")
	fmt.Printf("%-20s %14s %14s %10s\n", "model", "X lat (ms)", "H lat (ms)", "speedup")
	chip := h2onas.TPUv4i()
	for i := 0; i <= 7; i++ {
		x := h2onas.Simulate(h2onas.EfficientNetX(i).ServingGraph(16), chip, h2onas.SimOptions{})
		h := h2onas.Simulate(h2onas.EfficientNetH(i).ServingGraph(16), chip, h2onas.SimOptions{})
		fmt.Printf("%-20s %14.2f %14.2f %9.1f%%\n",
			fmt.Sprintf("B%d", i), x.StepTime*1e3, h.StepTime*1e3,
			(x.StepTime/h.StepTime-1)*100)
	}
	fmt.Println("\nB0–B4 are unchanged (already Pareto-optimal); B5–B7 swap uniform")
	fmt.Println("expansion-6 for a mixture of 4 and 6 inside the fused MBConv blocks.")
}
