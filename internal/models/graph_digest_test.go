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

// graphDigest is internal/space's test digest: each op's name, kind and
// accounting bits in order, then Params.
func graphDigest(g *arch.Graph) string {
	h := sha256.New()
	for _, op := range g.Ops {
		fmt.Fprintf(h, "%s %d", op.Name, op.Kind)
		for _, f := range []float64{op.FLOPs, op.ParamBytes, op.InputBytes, op.OutputBytes, op.Weight} {
			fmt.Fprintf(h, " %x", math.Float64bits(f))
		}
		fmt.Fprintln(h)
	}
	fmt.Fprintf(h, "params %x", math.Float64bits(g.Params))
	return fmt.Sprintf("%x", h.Sum(nil)[:16])
}

// TestZooGraphDigestsUnmoved pins every EfficientNet and CoAtNet graph to
// the digests captured before their stage loops moved into arch
// (testdata/graph_digests.txt; never regenerate it to make a refactor
// pass).
func TestZooGraphDigestsUnmoved(t *testing.T) {
	raw, err := os.ReadFile("testdata/graph_digests.txt")
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		label, digest, _ := strings.Cut(line, " ")
		want[label] = digest
	}
	got := map[string]string{}
	for i := 0; i <= 7; i++ {
		got[fmt.Sprintf("efficientnet-x%d", i)] = graphDigest(EfficientNetX(i).Graph())
		if i >= 5 {
			got[fmt.Sprintf("efficientnet-h%d", i)] = graphDigest(EfficientNetH(i).Graph())
		}
		if i < CoAtNetFamilySize() {
			got[fmt.Sprintf("coatnet-%d", i)] = graphDigest(CoAtNet(i).Graph())
			got[fmt.Sprintf("coatnet-h%d", i)] = graphDigest(CoAtNetH(i).Graph())
		}
	}
	if len(got) != len(want) {
		t.Errorf("%d graphs digested, golden file has %d", len(got), len(want))
	}
	for label, d := range got {
		if want[label] != d {
			t.Errorf("%s %s (golden %q)", label, d, want[label])
		}
	}
}
