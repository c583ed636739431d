package core

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
		b := newCoreBudget(c.total, c.shards)
		if b.total != c.wantTotal || b.workers() != c.wantWorkers || b.perShard() != c.wantPer {
			t.Errorf("newCoreBudget(%d,%d): total=%d workers=%d perShard=%d, want %d/%d/%d",
				c.total, c.shards, b.total, b.workers(), b.perShard(), c.wantTotal, c.wantWorkers, c.wantPer)
		}
		if b.shards != c.shards {
			t.Errorf("newCoreBudget(%d,%d).shards = %d", c.total, c.shards, b.shards)
		}
	}
}

func TestBudgetDefaults(t *testing.T) {
	b := newCoreBudget(0, 0)
	if b.total != runtime.GOMAXPROCS(0) {
		t.Errorf("newCoreBudget(0,0).total = %d, want GOMAXPROCS %d", b.total, runtime.GOMAXPROCS(0))
	}
	if b.shards != 1 || b.perShard() != b.total {
		t.Errorf("newCoreBudget(0,0) = %+v, want shards 1, per-shard = total", b)
	}
	if got := newCoreBudget(-3, -1).shards; got != 1 {
		t.Errorf("negative shards clamps to 1, got %d", got)
	}
}

// TestBudgetTracksGOMAXPROCS pins that the default budget follows a
// GOMAXPROCS change made before the search starts — the property the
// resizable shared kernel pool in internal/tensor relies on.
func TestBudgetTracksGOMAXPROCS(t *testing.T) {
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	for _, n := range []int{2, 3, 1} {
		runtime.GOMAXPROCS(n)
		if got := newCoreBudget(0, 1).total; got != n {
			t.Fatalf("after GOMAXPROCS(%d): total = %d", n, got)
		}
	}
}
