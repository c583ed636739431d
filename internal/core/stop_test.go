package core

import (
	"errors"
	"testing"

	"h2onas/internal/reward"
)

// TestStopWithoutCheckpointingStillStops covers the seam when no
// checkpoint directory is configured: the run returns ErrStopped with
// whatever history it accumulated, and nothing is written anywhere.
func TestStopWithoutCheckpointingStillStops(t *testing.T) {
	cfg := fastConfig(9)
	cfg.Steps, cfg.WarmupSteps = 5, 2
	stop := make(chan struct{})
	close(stop)
	cfg.Stop = stop
	s, _ := testSearcher(t, reward.ReLU, 1.0, 9)
	res, err := s.Search(cfg)
	if !errors.Is(err, ErrStopped) {
		t.Fatalf("err = %v, want ErrStopped", err)
	}
	if len(res.History) != 0 {
		t.Fatalf("a search stopped before its first step has history %v", res.History)
	}
}
