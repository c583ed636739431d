package space

import (
	"crypto/sha256"
	"fmt"
	"math"
	"os"
	"strings"
	"testing"

	"h2onas/internal/arch"
	"h2onas/internal/tensor"
)

// graphDigest hashes everything hwsim and the accuracy model read of a
// graph: each op's name, kind and accounting bits in order, then Params.
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

func randomAssignment(s *Space, seed uint64) Assignment {
	rng := tensor.NewRNG(seed)
	a := make(Assignment, len(s.Decisions))
	for i, dec := range s.Decisions {
		a[i] = rng.Intn(dec.Arity())
	}
	return a
}

// TestGraphDigestsUnmoved pins the CNN and hybrid-ViT graphs to the
// digests captured before the conv-stage space was folded into one owner
// (testdata/graph_digests.txt, "label digest" per line; never regenerate
// it to make a refactor pass).
func TestGraphDigestsUnmoved(t *testing.T) {
	raw, err := os.ReadFile("testdata/graph_digests.txt")
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		label, digest, _ := strings.Cut(line, " ")
		want[label] = digest
	}
	c := NewCNNSpace(DefaultCNNConfig())
	v := NewHybridViTSpace(DefaultViTConfig())
	got := map[string]string{
		"cnn/baseline":    graphDigest(c.Graph(c.Decode(c.BaselineAssignment()))),
		"hybrid/baseline": graphDigest(v.Graph(v.Decode(v.BaselineAssignment()))),
	}
	for seed := uint64(1); seed <= 3; seed++ {
		got[fmt.Sprintf("cnn/seed%d", seed)] = graphDigest(c.Graph(c.Decode(randomAssignment(c.Space, seed))))
		got[fmt.Sprintf("hybrid/seed%d", seed)] = graphDigest(v.Graph(v.Decode(randomAssignment(v.Space, seed))))
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

// TestConvStageDecisionsSharedByCNNAndHybrid requires the hybrid space's
// per-stage conv decisions to be the CNN space's, name for name and value
// for value, modulo the prefix (Table 5: "the convolutional search space
// per conv stage").
func TestConvStageDecisionsSharedByCNNAndHybrid(t *testing.T) {
	stage := CNNStage{Width: 96, Depth: 2, Stride: 2, Kernel: 3, Expansion: 4}
	c := NewCNNSpace(CNNConfig{Name: "c", Stages: []CNNStage{stage}, WidthStep: 64})
	v := NewHybridViTSpace(ViTConfig{Name: "v", ConvStages: []CNNStage{stage}, WidthStep: 64})
	for i := 0; i < 10; i++ {
		cd, vd := c.Space.Decisions[i], v.Space.Decisions[i]
		cn, vn := strings.TrimPrefix(cd.Name, "block0_"), strings.TrimPrefix(vd.Name, "conv0_")
		if cn == cd.Name || cn != vn || fmt.Sprint(cd.Values, cd.Labels) != fmt.Sprint(vd.Values, vd.Labels) {
			t.Errorf("decision %d: cnn %s %v vs hybrid %s %v", i, cd.Name, cd.Values, vd.Name, vd.Values)
		}
	}
}
