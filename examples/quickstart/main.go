// Quickstart: run a small hardware-optimized DLRM architecture search
// through the public API and print what it found.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"h2onas"
)

func main() {
	// The model baseline anchors the search space: embedding width and
	// vocabulary sweeps per sparse feature, MLP width/depth/low-rank
	// sweeps per layer (Table 5 of the paper).
	model := h2onas.SmallDLRMConfig()

	// Synthetic production traffic: sparse features carry memorization
	// signal, dense features carry non-linear generalization signal.
	// Every example is used exactly once (the in-memory pipeline).
	traffic := h2onas.DLRMTraffic(model)

	// Search for a model at least as fast as the baseline on TPUv4,
	// using the paper's single-sided ReLU reward.
	opts := h2onas.DefaultSearchConfig()
	opts.Steps = 120
	opts.Shards = 4
	opts.Progress = func(info h2onas.StepInfo) {
		if info.Step%30 == 0 {
			fmt.Printf("  step %3d: reward %+.3f, policy confidence %.2f\n",
				info.Step, info.MeanReward, info.Confidence)
		}
	}

	fmt.Println("searching...")
	res, err := h2onas.SearchDLRM(model, traffic, h2onas.TPUv4(), h2onas.ReLUReward, 1.0, opts)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("\nfound architecture:")
	fmt.Printf("  embedding widths:   %v\n", res.BestArch.EmbWidths)
	fmt.Printf("  embedding vocabs:   %v\n", res.BestArch.EmbVocabs)
	fmt.Printf("  bottom MLP widths:  %v (ranks %v)\n", res.BestArch.BottomWidths, res.BestArch.BottomRanks)
	fmt.Printf("  top MLP widths:     %v (ranks %v)\n", res.BestArch.TopWidths, res.BestArch.TopRanks)
	fmt.Printf("  quality:            %.4f\n", res.FinalQuality)
	fmt.Printf("  train step time:    %.0f µs (target: baseline)\n", res.BestPerf[0]*1e6)
	fmt.Printf("  serving memory:     %.2f MB\n", res.BestPerf[1]/1e6)
	fmt.Printf("  traffic consumed:   %d examples, each used once\n", res.ExamplesSeen)
}
