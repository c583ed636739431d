package hwsim_test

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"h2onas/internal/arch"
	"h2onas/internal/hwsim"
	"h2onas/internal/models"
	"h2onas/internal/space"
	"h2onas/internal/tensor"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/simulate_golden.txt")

// goldenGraph is one graph the golden pins, by label.
type goldenGraph struct {
	label string
	g     *arch.Graph
}

// goldenGraphs returns every graph models.Lookup resolves (at the zoo's
// reference batch) and the baseline plus 16 random candidates of the
// CNN, hybrid-ViT, small and default transformer, and small DLRM spaces.
func goldenGraphs(t *testing.T) []goldenGraph {
	var out []goldenGraph
	for _, line := range models.Names() {
		var names []string
		if first, last, ok := strings.Cut(line, " … "); ok {
			prefix := strings.TrimSuffix(first, "0")
			n, err := strconv.Atoi(strings.TrimPrefix(last, prefix))
			if err != nil {
				t.Fatalf("models.Names line %q: %v", line, err)
			}
			for i := 0; i <= n; i++ {
				names = append(names, prefix+strconv.Itoa(i))
			}
		} else {
			names = strings.Split(line, ", ")
		}
		for _, name := range names {
			build, err := models.Lookup(name)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, goldenGraph{name, build(0)})
		}
	}

	c := space.NewCNNSpace(space.DefaultCNNConfig())
	h := space.NewHybridViTSpace(space.DefaultViTConfig())
	ts := space.NewTransformerSpace(space.SmallViTConfig())
	td := space.NewTransformerSpace(space.DefaultViTConfig())
	d := space.NewDLRMSpace(space.SmallDLRMConfig())
	spaces := []struct {
		label string
		sp    *space.Space
		base  space.Assignment
		graph func(space.Assignment) *arch.Graph
	}{
		{"cnn", c.Space, c.BaselineAssignment(), func(a space.Assignment) *arch.Graph { return c.Graph(c.Decode(a)) }},
		{"hybrid", h.Space, h.BaselineAssignment(), func(a space.Assignment) *arch.Graph { return h.Graph(h.Decode(a)) }},
		{"tfm-small", ts.Space, ts.BaselineAssignment(), func(a space.Assignment) *arch.Graph { return ts.Graph(ts.Decode(a)) }},
		{"tfm-default", td.Space, td.BaselineAssignment(), func(a space.Assignment) *arch.Graph { return td.Graph(td.Decode(a)) }},
		{"dlrm-small", d.Space, d.BaselineAssignment(), func(a space.Assignment) *arch.Graph { return d.Graph(d.Decode(a)) }},
	}
	for _, s := range spaces {
		out = append(out, goldenGraph{s.label + "/baseline", s.graph(s.base)})
		rng := tensor.NewRNG(17)
		for k := 0; k < 16; k++ {
			a := make(space.Assignment, len(s.sp.Decisions))
			for i, dec := range s.sp.Decisions {
				a[i] = rng.Intn(dec.Arity())
			}
			out = append(out, goldenGraph{fmt.Sprintf("%s/%d", s.label, k), s.graph(a)})
		}
	}
	return out
}

// resultBits formats every field of r in declaration order (the golden's
// header names them): each float as %016x of its bits, and PerOp as its
// length and a digest of every trace's name, kind and float bits.
func resultBits(t *testing.T, r hwsim.Result) string {
	var b strings.Builder
	v := reflect.ValueOf(r)
	for i := 0; i < v.NumField(); i++ {
		f := v.Type().Field(i)
		switch f.Type.Kind() {
		case reflect.Float64:
			fmt.Fprintf(&b, " %016x", math.Float64bits(v.Field(i).Float()))
		case reflect.Slice:
			h := sha256.New()
			for _, op := range r.PerOp {
				fmt.Fprintf(h, "%s %d %016x %016x %016x %016x %016x\n", op.Name, op.Kind,
					math.Float64bits(op.ComputeTime), math.Float64bits(op.MemoryTime), math.Float64bits(op.Time),
					math.Float64bits(op.HBMBytes), math.Float64bits(op.CMEMBytes))
			}
			fmt.Fprintf(&b, " %d:%x", len(r.PerOp), h.Sum(nil)[:12])
		default:
			t.Fatalf("Result.%s has kind %s, which the golden does not format", f.Name, f.Type.Kind())
		}
	}
	return b.String()
}

// TestSimulateGolden pins hwsim.Simulate bit for bit on every zoo graph
// and on sampled candidates of every search space: every Result field,
// with the per-op trace, in training and inference mode, with fusion on
// and off (testdata/simulate_golden.txt; -update-golden rewrites it, and
// a refactor of the simulator or of graph building must rewrite nothing).
func TestSimulateGolden(t *testing.T) {
	chip := hwsim.TPUv4()
	modes := []struct {
		label string
		opts  hwsim.Options
	}{
		{"train", hwsim.Options{Mode: hwsim.Training, Trace: true}},
		{"train-nofuse", hwsim.Options{Mode: hwsim.Training, Trace: true, DisableFusion: true}},
		{"infer", hwsim.Options{Mode: hwsim.Inference, Trace: true}},
		{"infer-nofuse", hwsim.Options{Mode: hwsim.Inference, Trace: true, DisableFusion: true}},
	}
	var got bytes.Buffer
	got.WriteString("# graph mode")
	for _, f := range reflect.VisibleFields(reflect.TypeOf(hwsim.Result{})) {
		got.WriteString(" " + f.Name)
	}
	got.WriteString("\n")
	for _, gg := range goldenGraphs(t) {
		for _, m := range modes {
			fmt.Fprintf(&got, "%s %s%s\n", gg.label, m.label, resultBits(t, hwsim.Simulate(gg.g, chip, m.opts)))
		}
	}
	path := filepath.Join("testdata", "simulate_golden.txt")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	gotLines, wantLines := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	if len(gotLines) != len(wantLines) {
		t.Fatalf("%d result lines, %s has %d", len(gotLines), path, len(wantLines))
	}
	for i := range gotLines {
		if gotLines[i] != wantLines[i] {
			t.Errorf("line %d moved\n got: %s\nwant: %s", i+1, gotLines[i], wantLines[i])
		}
	}
}

// TestSimulateAllocs requires an untraced Simulate to allocate nothing on
// any golden graph, fused or not: it walks the graph's ops in place.
func TestSimulateAllocs(t *testing.T) {
	graphs := goldenGraphs(t)
	for _, opts := range []hwsim.Options{
		{Mode: hwsim.Training},
		{Mode: hwsim.Inference, DisableFusion: true},
	} {
		k := 0
		if allocs := testing.AllocsPerRun(len(graphs), func() {
			hwsim.Simulate(graphs[k%len(graphs)].g, hwsim.TPUv4(), opts)
			k++
		}); allocs != 0 {
			t.Errorf("Simulate(%+v) makes %.2f allocations per graph, want 0", opts, allocs)
		}
	}
}
