package experiments

import "testing"

func TestExtPerfModelTransferShape(t *testing.T) {
	if testing.Short() {
		t.Skip("training-based experiment")
	}
	r := ExtPerfModelTransfer(Smoke())
	zero := r.Metrics["nrmse_zero_shot"]
	in := r.Metrics["nrmse_in_domain"]
	tuned := r.Metrics["nrmse_transferred"]
	if zero <= in {
		t.Errorf("zero-shot transfer (%v) must degrade vs in-domain (%v)", zero, in)
	}
	if tuned >= zero {
		t.Errorf("fine-tuning (%v) must recover from zero-shot (%v)", tuned, zero)
	}
}

// TestExtSearchAlgorithmsShape runs the battery at Quick scale (240
// evaluations each), because Smoke cannot show an ordering: evolution
// fills its population of 32 with uniform draws from the stream random
// search samples too, so Smoke's 40 evaluations leave it 8 mutants,
// none better than random's best, and the two tie on the same candidate
// (testdata/golden/ext_algos_smoke.txt).
func TestExtSearchAlgorithmsShape(t *testing.T) {
	r := ExtSearchAlgorithms(Quick())
	if len(r.Rows) != 3 {
		t.Fatalf("rows = %d, want 3 algorithms", len(r.Rows))
	}
	for _, key := range []string{"reinforce_reward", "random_reward", "evolution_reward"} {
		if _, ok := r.Metrics[key]; !ok {
			t.Errorf("missing metric %s", key)
		}
	}
	if r.Metrics["evolution_reward"] <= r.Metrics["random_reward"] {
		t.Errorf("evolution (%v) not above random (%v) at equal budget", r.Metrics["evolution_reward"], r.Metrics["random_reward"])
	}
}

func TestExtScalingStudyShape(t *testing.T) {
	r := ExtScalingStudy()
	if len(r.Rows) != 8 {
		t.Fatalf("rows = %d, want 2 models × 4 chip counts", len(r.Rows))
	}
	// Compute-bound CoAtNet should scale near-linearly in this range.
	if eff := r.Metrics["coatnet5_eff_512"]; eff < 0.9 {
		t.Errorf("CoAtNet-5 efficiency at 512 chips = %v, want near-linear", eff)
	}
	// The communication-bound DLRM must show losses at extreme scale.
	if eff := r.Metrics["dlrm_eff_512"]; eff > 0.95 {
		t.Errorf("DLRM efficiency at 512 chips = %v, should show strong-scaling losses", eff)
	}
}

func TestExtServingStudyShape(t *testing.T) {
	r := ExtServingStudy()
	if len(r.Rows) != 12 {
		t.Fatalf("rows = %d, want 2 models × 3 targets × 2 variants", len(r.Rows))
	}
	// Wherever both are servable, the H variant must sustain at least the
	// X variant's load.
	for key, v := range r.Metrics {
		if v < 1 {
			t.Errorf("H variant must not serve less than X: %s = %v", key, v)
		}
	}
}

func TestExtDriftStudyShape(t *testing.T) {
	if testing.Short() {
		t.Skip("training-based experiment")
	}
	r := ExtDriftStudy(Smoke())
	if r.Metrics["decay"] <= 0 {
		t.Errorf("frozen model must decay under drift: %v", r.Metrics["decay"])
	}
	if r.Metrics["continuous_final"] <= r.Metrics["frozen_final"] {
		t.Errorf("continuous training (%v) must beat frozen (%v) after drift",
			r.Metrics["continuous_final"], r.Metrics["frozen_final"])
	}
}

func TestExtensionRegistryResolves(t *testing.T) {
	for _, r := range ExtensionRegistry() {
		got, err := Lookup(r.ID)
		if err != nil || got.ID != r.ID {
			t.Errorf("Lookup(%s): %v", r.ID, err)
		}
	}
}
