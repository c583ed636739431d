// nlpsearch searches the pure transformer space with a live weight-sharing
// super-network on synthetic sequence traffic — the "our transformer
// search space can be used in isolation to search for pure VIT or
// transformer based NLP models" flow from the paper's Appendix A.
//
// The synthetic task mixes unary token effects (learnable by embeddings)
// with a long-range pair interaction (needs attention), so searched
// dimensions — hidden width, layers, FFN rank, activation, sequence
// pooling — all trade quality against simulated TPU step time.
//
//	go run ./examples/nlpsearch
package main

import (
	"fmt"
	"log"

	"h2onas"
)

func main() {
	model := h2onas.SmallViTConfig()
	vs := h2onas.NewTransformerSpace(model)
	fmt.Printf("transformer search space: %d decisions, O(10^%.1f) candidates\n",
		len(vs.Space.Decisions), vs.Space.Log10Size())
	fmt.Println("demanding a model no slower than the baseline on TPUv4")

	// 4 shards × 120 steps of batch 32 after 20 warm-up steps, seed 42.
	opts := h2onas.OneShotSearchConfig(4, 120, 32, 20, 42)
	opts.Progress = func(info h2onas.StepInfo) {
		if info.Step%30 == 0 {
			fmt.Printf("  step %3d: quality %+.3f, entropy %.1f\n", info.Step, info.MeanQ, info.Entropy)
		}
	}
	res, err := h2onas.SearchTransformer(model, h2onas.DefaultSeqConfig(), h2onas.TPUv4(), h2onas.ReLUReward, 1.0, opts)
	if err != nil {
		log.Fatal(err)
	}

	blk := res.BestArch.TFMBlocks[0]
	fmt.Println("\nfound transformer:")
	fmt.Printf("  hidden %d, %d layers, activation %s, FFN rank fraction %.1f, seq pooling %v\n",
		blk.Hidden, blk.Layers, blk.Act, blk.LowRank, blk.SeqPool)
	fmt.Printf("  quality %.4f | step time %.0fµs | traffic %d examples\n",
		res.FinalQuality, res.BestPerf[0]*1e6, res.ExamplesSeen)
}
