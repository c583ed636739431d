// futurechip demonstrates the "late binding" workflow from the paper's
// conclusion: hardware architects commit silicon years before the models
// that will run on it exist, and H₂O-NAS later optimizes models for that
// hardware. Here a hypothetical next-generation accelerator is defined in
// datasheet units, the existing model zoo is profiled on it, and a DLRM
// search is run against it — no code changes, just a chip description.
//
//	go run ./examples/futurechip
package main

import (
	"fmt"
	"log"
	"strings"

	"h2onas"
)

// futureTPU is a hypothetical chip an architect might be evaluating:
// 3× TPUv4's compute, 2.5× its HBM bandwidth, double the on-chip memory.
const futureTPU = `{
	"version": 1,
	"name": "TPUvNext (hypothetical)",
	"peak_mxu_tflops": 825,
	"peak_vpu_tflops": 13,
	"hbm_gbps": 3000,
	"hbm_capacity_gb": 64,
	"cmem_mib": 256,
	"cmem_gbps": 30000,
	"ici_gbps": 900,
	"op_overhead_us": 0.8,
	"idle_w": 130, "mxu_w": 180, "vpu_w": 30,
	"hbm_w": 70, "cmem_w": 14, "ici_w": 20,
	"silicon_gap": 1.3
}`

func main() {
	chip, err := h2onas.LoadChip(strings.NewReader(futureTPU))
	if err != nil {
		log.Fatal(err)
	}
	today := h2onas.TPUv4()

	fmt.Printf("profiling the model zoo on %s vs %s:\n\n", chip.Name, today.Name)
	fmt.Printf("%-14s %16s %16s %9s\n", "model", "TPUv4 (ms/step)", "vNext (ms/step)", "speedup")
	for _, i := range []int{2, 5} {
		g := h2onas.CoAtNet(i).Graph()
		a := h2onas.Simulate(g, today, h2onas.SimOptions{Mode: h2onas.Training})
		b := h2onas.Simulate(g, chip, h2onas.SimOptions{Mode: h2onas.Training})
		fmt.Printf("%-14s %16.1f %16.1f %8.2fx\n",
			h2onas.CoAtNet(i).Name, a.StepTime*1e3, b.StepTime*1e3, a.StepTime/b.StepTime)
	}

	// Now search a DLRM *for the future chip*: the same library call,
	// binding the model architecture to hardware that does not exist yet.
	fmt.Printf("\nsearching a DLRM for %s (15%% faster than its baseline there)...\n", chip.Name)
	model := h2onas.SmallDLRMConfig()
	traffic := h2onas.DLRMTraffic(model)
	opts := h2onas.DefaultSearchConfig()
	opts.Steps, opts.Shards, opts.WarmupSteps = 100, 4, 16
	res, err := h2onas.SearchDLRM(model, traffic, chip, h2onas.ReLUReward, 0.85, opts)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("found: quality %.4f, step %.0fµs on the future chip, %.2fMB serving\n",
		res.FinalQuality, res.BestPerf[0]*1e6, res.BestPerf[1]/1e6)
	fmt.Println("\nthe same architecture search, re-targeted by swapping one JSON document —")
	fmt.Println("\"late binding of model architectures to hardware architectures\" (§9)")
}
