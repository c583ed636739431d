package core

import (
	"fmt"
	"runtime"
	"testing"
)

// TestSearchBitIdenticalAcrossGOMAXPROCS runs the same search under
// GOMAXPROCS=1 (which forces the spine's serial reduce/clip/step path)
// and under full parallelism, and asserts the trajectories are
// bit-identical: same best architecture, the same History floats to the
// last bit, and the same final quality. On top of the historical serial-
// vs-parallel pair, the sweep covers uneven core-budget splits — worker
// budgets that don't divide the shard count (3 and 5 workers over 4
// shards), budgets smaller and larger than the shard count, and a budget
// far above the machine — all through the prefetching datapipe path the
// step loop now always uses. This is the end-to-end check of the
// determinism contract: the sched.Budget partition, the budget-aware
// layer fan-outs and the spine are all performance knobs that never move
// a bit.
func TestSearchBitIdenticalAcrossGOMAXPROCS(t *testing.T) {
	cfg := fastConfig(11)
	cfg.Steps, cfg.WarmupSteps = 20, 5
	HarnessBitIdenticalAcrossGOMAXPROCS(t, DLRMSearch, cfg)
}

// HarnessBitIdenticalAcrossGOMAXPROCS is the body of the sweep; cfg is a
// 4-shard run.
func HarnessBitIdenticalAcrossGOMAXPROCS(t *testing.T, search SearchFunc, cfg Config) {
	run := func(procs, workers int) *Outcome {
		prev := runtime.GOMAXPROCS(procs)
		defer runtime.GOMAXPROCS(prev)
		cfg := cfg
		cfg.Workers = workers
		res, err := search(t, 11, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	// The reference: one proc, explicit serial budget.
	serial := run(1, 1)

	// cfg runs 4 shards, so the sweep covers budget < shards
	// (3/4: some shards share, PerShard=1), the GOMAXPROCS default (0),
	// uneven budget > shards (5/4), and a budget far beyond the machine
	// (16/4: PerShard=4 on every shard regardless of cores).
	cases := []struct{ procs, workers int }{
		{runtime.NumCPU(), 0},
		{1, 3},
		{2, 3},
		{3, 5},
		{runtime.NumCPU(), 16},
	}
	for _, c := range cases {
		t.Run(fmt.Sprintf("procs=%d_workers=%d", c.procs, c.workers), func(t *testing.T) {
			got := run(c.procs, c.workers)
			assertSameTrajectory(t, serial, got)
		})
	}
}

func assertSameTrajectory(t *testing.T, serial, got *Outcome) {
	t.Helper()
	if len(serial.Best) != len(got.Best) {
		t.Fatalf("Best lengths differ: %d vs %d", len(serial.Best), len(got.Best))
	}
	for i := range serial.Best {
		if serial.Best[i] != got.Best[i] {
			t.Fatalf("Best[%d] = %d, want %d (serial)", i, got.Best[i], serial.Best[i])
		}
	}
	if len(serial.History) != len(got.History) {
		t.Fatalf("History lengths differ: %d vs %d", len(serial.History), len(got.History))
	}
	for i := range serial.History {
		a, b := serial.History[i], got.History[i]
		if a.Step != b.Step || a.MeanReward != b.MeanReward || a.MeanQ != b.MeanQ ||
			a.Entropy != b.Entropy || a.Confidence != b.Confidence {
			t.Fatalf("History[%d] differs: serial %+v, got %+v", i, a, b)
		}
	}
	if serial.FinalQuality != got.FinalQuality {
		t.Fatalf("FinalQuality = %v, want %v (serial)", got.FinalQuality, serial.FinalQuality)
	}
}
