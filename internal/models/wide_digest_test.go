package models

import (
	"crypto/sha256"
	"fmt"
	"math"
	"os"
	"strings"
	"testing"

	"h2onas/internal/arch"
)

// wideGraphDigest is internal/space's wide test digest: the graph's name,
// batch, dtype and Params, and per op its name, kind, unit, fusability
// and every accounting float, NetworkBytes included.
func wideGraphDigest(g *arch.Graph) string {
	h := sha256.New()
	fmt.Fprintf(h, "%s %d %d\n", g.Name, g.Batch, g.DTypeBytes)
	for _, op := range g.Ops {
		fmt.Fprintf(h, "%s %d %d %t", op.Name, op.Kind, op.Unit, op.Fusable)
		for _, f := range []float64{op.FLOPs, op.ParamBytes, op.InputBytes, op.OutputBytes, op.NetworkBytes, op.Weight} {
			fmt.Fprintf(h, " %x", math.Float64bits(f))
		}
		fmt.Fprintln(h)
	}
	fmt.Fprintf(h, "params %x", math.Float64bits(g.Params))
	return fmt.Sprintf("%x", h.Sum(nil)[:16])
}

// zooGraphs returns every EfficientNet and CoAtNet graph by label.
func zooGraphs() map[string]*arch.Graph {
	out := map[string]*arch.Graph{}
	for i := 0; i <= 7; i++ {
		out[fmt.Sprintf("efficientnet-x%d", i)] = EfficientNetX(i).Graph()
		if i >= 5 {
			out[fmt.Sprintf("efficientnet-h%d", i)] = EfficientNetH(i).Graph()
		}
		if i < CoAtNetFamilySize() {
			out[fmt.Sprintf("coatnet-%d", i)] = CoAtNet(i).Graph()
			out[fmt.Sprintf("coatnet-h%d", i)] = CoAtNetH(i).Graph()
		}
	}
	return out
}

// TestZooWideGraphDigestsUnmoved pins every EfficientNet and CoAtNet
// graph to the wide digests captured before the zoo builders moved onto
// the preallocated block expansion (testdata/wide_graph_digests.txt;
// never regenerate it to make a refactor pass).
func TestZooWideGraphDigestsUnmoved(t *testing.T) {
	raw, err := os.ReadFile("testdata/wide_graph_digests.txt")
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		label, digest, _ := strings.Cut(line, " ")
		want[label] = digest
	}
	got := zooGraphs()
	if len(got) != len(want) {
		t.Errorf("%d graphs digested, golden file has %d", len(got), len(want))
	}
	for label, g := range got {
		if d := wideGraphDigest(g); want[label] != d {
			t.Errorf("%s %s (golden %q)", label, d, want[label])
		}
	}
}
