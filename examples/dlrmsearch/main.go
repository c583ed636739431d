// dlrmsearch runs the production-style DLRM flow the paper deploys: two
// searches with different reward functions (the paper's single-sided ReLU
// reward vs the TuNAS absolute reward) under the same training-step-time
// and serving-memory targets, then compares what each found — the
// Figure 5 experiment in miniature.
//
//	go run ./examples/dlrmsearch
package main

import (
	"fmt"
	"log"

	"h2onas"
)

func main() {
	model := h2onas.SmallDLRMConfig()
	traffic := h2onas.DLRMTraffic(model)
	chip := h2onas.TPUv4()

	// 4 shards × 150 steps of batch 64 after 20 warm-up steps, seed 7.
	opts := h2onas.OneShotSearchConfig(4, 150, 64, 20, 7)

	// Demand a model 15% faster than the baseline at neutral memory.
	const latencyTarget = 0.85

	type outcome struct {
		name string
		res  *h2onas.SearchResult
	}
	var outcomes []outcome
	for _, kind := range []h2onas.RewardKind{h2onas.ReLUReward, h2onas.AbsoluteReward} {
		fmt.Printf("searching with the %s reward...\n", kind)
		res, err := h2onas.SearchDLRM(model, traffic, chip, kind, latencyTarget, opts)
		if err != nil {
			log.Fatal(err)
		}
		outcomes = append(outcomes, outcome{kind.String(), res})
	}

	fmt.Printf("\n%-10s %-12s %-12s %-12s\n", "reward", "quality", "step (µs)", "memory (MB)")
	for _, o := range outcomes {
		fmt.Printf("%-10s %-12.4f %-12.0f %-12.2f\n",
			o.name, o.res.FinalQuality, o.res.BestPerf[0]*1e6, o.res.BestPerf[1]/1e6)
	}

	relu, abs := outcomes[0].res, outcomes[1].res
	fmt.Println()
	if relu.BestPerf[1] < abs.BestPerf[1] {
		fmt.Printf("the ReLU reward found a %.1f%% smaller model — it never penalizes\n",
			(1-relu.BestPerf[1]/abs.BestPerf[1])*100)
		fmt.Println("overachievers, so candidates below the memory target keep their full reward")
	} else {
		fmt.Println("on this seed the absolute reward matched ReLU on memory; across seeds")
		fmt.Println("and targets the ReLU reward dominates (run cmd/experiments -run fig5)")
	}
}
