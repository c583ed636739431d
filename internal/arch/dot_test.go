package arch

import (
	"bytes"
	"strings"
	"testing"
)

func TestWriteDot(t *testing.T) {
	g := &Graph{Name: "toy", Batch: 4, DTypeBytes: 2}
	DenseOp(g.Push(), "fc1", 4, 8, 8, 2)
	DenseOp(g.Push(), "fc2", 4, 8, 8, 2).Weight = 3
	AllReduceOp(g.Push(), "sync", 1e6)

	var buf bytes.Buffer
	if err := g.WriteDot(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		`digraph "toy"`,
		"fc1",
		"×3 layers",
		"all_reduce",
		"n0 -> n1",
		"n1 -> n2",
		unitColor(MXU),
		unitColor(NetworkUnit),
	} {
		if !strings.Contains(out, want) {
			t.Errorf("dot output missing %q", want)
		}
	}
	if strings.Count(out, "->") != 2 {
		t.Errorf("want 2 edges for 3 nodes, got %d", strings.Count(out, "->"))
	}
}

func TestWriteDotUnitColorsDistinct(t *testing.T) {
	seen := map[string]Unit{}
	for _, u := range []Unit{MXU, VPU, MemoryUnit, NetworkUnit} {
		c := unitColor(u)
		if prev, dup := seen[c]; dup {
			t.Fatalf("units %v and %v share color %s", prev, u, c)
		}
		seen[c] = u
	}
}
