package sched

import (
	"runtime"
	"testing"
)

func TestBudgetPartition(t *testing.T) {
	cases := []struct {
		total, shards                   int
		wantTotal, wantWorkers, wantPer int
	}{
		{8, 8, 8, 8, 1},
		{8, 4, 8, 4, 2},
		{4, 8, 4, 4, 1},   // oversubscribed: shards queue on 4 workers, kernels run serially
		{16, 3, 16, 3, 5}, // uneven split floors
		{1, 8, 1, 1, 1},
		{3, 4, 3, 3, 1},
		{5, 4, 5, 4, 1},
	}
	for _, c := range cases {
		b := New(c.total, c.shards)
		if b.Total() != c.wantTotal || b.Workers() != c.wantWorkers || b.PerShard() != c.wantPer {
			t.Errorf("New(%d,%d): Total=%d Workers=%d PerShard=%d, want %d/%d/%d",
				c.total, c.shards, b.Total(), b.Workers(), b.PerShard(), c.wantTotal, c.wantWorkers, c.wantPer)
		}
		if b.Shards() != c.shards {
			t.Errorf("New(%d,%d).Shards() = %d", c.total, c.shards, b.Shards())
		}
	}
}

func TestBudgetDefaults(t *testing.T) {
	b := New(0, 0)
	if b.Total() != runtime.GOMAXPROCS(0) {
		t.Errorf("New(0,0).Total() = %d, want GOMAXPROCS %d", b.Total(), runtime.GOMAXPROCS(0))
	}
	if b.Shards() != 1 || b.PerShard() != b.Total() {
		t.Errorf("New(0,0) = %+v, want shards 1, per-shard = total", b)
	}
	if got := New(-3, -1).Shards(); got != 1 {
		t.Errorf("negative shards clamps to 1, got %d", got)
	}
}

// TestBudgetTracksGOMAXPROCS pins that the default budget follows a
// GOMAXPROCS change made before New — the property the resizable shared
// kernel pool in internal/tensor relies on.
func TestBudgetTracksGOMAXPROCS(t *testing.T) {
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	for _, n := range []int{2, 3, 1} {
		runtime.GOMAXPROCS(n)
		if got := New(0, 1).Total(); got != n {
			t.Fatalf("after GOMAXPROCS(%d): Total() = %d", n, got)
		}
	}
}
