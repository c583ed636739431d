package space

import (
	"crypto/sha256"
	"fmt"
	"math"
	"os"
	"strings"
	"testing"

	"h2onas/internal/arch"
)

// wideGraphDigest hashes every field of a graph that hwsim or the
// accuracy model reads: the graph's name, batch, dtype and Params, and
// per op, in order, its name, kind, unit, fusability and every accounting
// float (NetworkBytes included).
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

// pricedSpace is one non-DLRM space whose candidates the wide digests pin.
type pricedSpace struct {
	label    string
	space    *Space
	baseline Assignment
	graph    func(Assignment) *arch.Graph
	// warm returns a pricer that decodes and builds every candidate into
	// the one arch and graph it owns (DecodeInto, GraphInto).
	warm func() func(Assignment) *arch.Graph
}

// pricedSpaces returns the CNN space, the hybrid-ViT space and the pure
// transformer space over both the small baseline (the one vit_search and
// h2onas -domain nlp price) and the default one.
func pricedSpaces() []pricedSpace {
	c := NewCNNSpace(DefaultCNNConfig())
	v := NewHybridViTSpace(DefaultViTConfig())
	ts := NewTransformerSpace(SmallViTConfig())
	td := NewTransformerSpace(DefaultViTConfig())
	cnnWarm := func() func(Assignment) *arch.Graph {
		var ar CNNArch
		var g arch.Graph
		return func(a Assignment) *arch.Graph { c.DecodeInto(a, &ar); c.GraphInto(ar, &g); return &g }
	}
	return []pricedSpace{
		{"cnn", c.Space, c.BaselineAssignment(), func(a Assignment) *arch.Graph { return c.Graph(c.Decode(a)) }, cnnWarm},
		{"hybrid", v.Space, v.BaselineAssignment(), func(a Assignment) *arch.Graph { return v.Graph(v.Decode(a)) }, vitWarm(v)},
		{"tfm-small", ts.Space, ts.BaselineAssignment(), func(a Assignment) *arch.Graph { return ts.Graph(ts.Decode(a)) }, vitWarm(ts)},
		{"tfm-default", td.Space, td.BaselineAssignment(), func(a Assignment) *arch.Graph { return td.Graph(td.Decode(a)) }, vitWarm(td)},
	}
}

func vitWarm(v *ViTSpace) func() func(Assignment) *arch.Graph {
	return func() func(Assignment) *arch.Graph {
		var ar ViTArch
		var g arch.Graph
		return func(a Assignment) *arch.Graph { v.DecodeInto(a, &ar); v.GraphInto(ar, &g); return &g }
	}
}

// wideDigestSeeds is the number of random candidates pinned per space.
const wideDigestSeeds = 32

// TestWideGraphDigestsUnmoved pins the baseline and 32 random candidates
// of every non-DLRM space to the wide digests captured before those
// spaces' decoders and graph expansion were rewritten to allocate less
// (testdata/wide_graph_digests.txt, "label digest" per line; never
// regenerate it to make a refactor pass).
func TestWideGraphDigestsUnmoved(t *testing.T) {
	raw, err := os.ReadFile("testdata/wide_graph_digests.txt")
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		label, digest, _ := strings.Cut(line, " ")
		want[label] = digest
	}
	got := map[string]string{}
	for _, ps := range pricedSpaces() {
		// One warm pricer rebuilds every graph in place: each rebuild must
		// digest as its fresh build does.
		warm := ps.warm()
		digest := func(label string, a Assignment) {
			got[label] = wideGraphDigest(ps.graph(a))
			if d := wideGraphDigest(warm(a)); d != got[label] {
				t.Errorf("%s: rebuilt in place %s, built fresh %s", label, d, got[label])
			}
		}
		digest(ps.label+"/baseline", ps.baseline)
		for seed := uint64(1); seed <= wideDigestSeeds; seed++ {
			digest(fmt.Sprintf("%s/seed%d", ps.label, seed), randomAssignment(ps.space, seed))
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
