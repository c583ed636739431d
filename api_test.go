package h2onas_test

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"h2onas"
)

// The API tests exercise the public façade end to end — what a downstream
// user's first hour with the library looks like.

func TestSearchDLRMThroughPublicAPI(t *testing.T) {
	model := h2onas.SmallDLRMConfig()
	traffic := h2onas.DLRMTraffic(model)
	if traffic.NumTables != model.NumTables || traffic.Vocab != model.BaseVocab || traffic.NumDense != model.NumDense {
		t.Fatalf("DLRMTraffic = %+v, not shaped like the model", traffic)
	}
	opts := h2onas.OneShotSearchConfig(2, 15, 16, 4, 1)
	res, err := h2onas.SearchDLRM(model, traffic, h2onas.TPUv4(), h2onas.ReLUReward, 1.0, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.BestArch.EmbWidths) != model.NumTables {
		t.Fatalf("best arch has %d tables, want %d", len(res.BestArch.EmbWidths), model.NumTables)
	}
	if res.BestPerf[0] <= 0 || res.BestPerf[1] <= 0 {
		t.Fatalf("BestPerf = %v", res.BestPerf)
	}
}

func TestSimulateModelZooThroughPublicAPI(t *testing.T) {
	g := h2onas.CoAtNet(0).Graph()
	res := h2onas.Simulate(g, h2onas.TPUv4(), h2onas.SimOptions{Mode: h2onas.Training, Chips: 8})
	if res.StepTime <= 0 || res.Power <= 0 {
		t.Fatalf("simulation degenerate: %+v", res)
	}
	meas := h2onas.Measure(g, h2onas.TPUv4(), h2onas.SimOptions{Mode: h2onas.Training, Chips: 8}, 1)
	if meas.StepTime <= res.StepTime {
		t.Fatal("measured time must carry the silicon gap")
	}
}

func TestPerfModelThroughPublicAPI(t *testing.T) {
	ds := h2onas.NewDLRMSpace(h2onas.SmallDLRMConfig())
	sim := h2onas.SimulatorSamples(ds, h2onas.TPUv4(), 300, 1)
	m := h2onas.NewPerfModel(len(ds.Space.Decisions), []int{32}, 1)
	if err := m.Pretrain(sim, h2onas.PerfTrainConfig{Epochs: 5, BatchSize: 64, LR: 1e-3, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	trainT, serveT := m.Predict(ds.Space.Features(ds.BaselineAssignment()))
	if trainT <= 0 || serveT <= 0 || math.IsNaN(trainT) {
		t.Fatalf("Predict = (%v, %v)", trainT, serveT)
	}
}

func TestRunExperimentThroughPublicAPI(t *testing.T) {
	r, err := h2onas.RunExperiment("table5", h2onas.SmokeScale())
	if err != nil {
		t.Fatal(err)
	}
	if r.ID != "table5" || len(r.Rows) == 0 {
		t.Fatalf("malformed report %+v", r)
	}
	if _, err := h2onas.RunExperiment("nope", h2onas.SmokeScale()); err == nil {
		t.Fatal("unknown experiment must error")
	}
}

func TestVisionAccuracyThroughPublicAPI(t *testing.T) {
	spec := h2onas.CoAtNet(5)
	acc := h2onas.VisionAccuracy(spec.Traits(spec), h2onas.JFT300M)
	if acc < 88 || acc > 91 {
		t.Fatalf("CoAtNet-5 accuracy %v, want ≈89.7", acc)
	}
	if h2onas.VisionAccuracy(spec.Traits(spec), h2onas.ImageNet1K) >= acc {
		t.Fatal("small-data accuracy must be below large-data accuracy")
	}
}

func TestTrafficStreamThroughPublicAPI(t *testing.T) {
	s := h2onas.NewTrafficStream(h2onas.TrafficConfig{NumTables: 2, Vocab: 10, NumDense: 3}, 1)
	b := s.NextBatch(4)
	if b.Size() != 4 {
		t.Fatalf("batch size %d", b.Size())
	}
	b.UseForArch()
	b.UseForWeights() // the mandated ordering works through the façade
}

func TestSearchTransformerThroughPublicAPI(t *testing.T) {
	res, err := h2onas.SearchTransformer(
		h2onas.SmallViTConfig(), h2onas.DefaultSeqConfig(), h2onas.TPUv4(),
		h2onas.ReLUReward, 1.0,
		h2onas.SearchConfig{Shards: 2, Steps: 8, BatchSize: 8, WarmupSteps: 2, Seed: 1},
	)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.BestArch.TFMBlocks) == 0 {
		t.Fatal("no transformer blocks decoded")
	}
	if res.BestPerf[0] <= 0 {
		t.Fatalf("BestPerf = %v", res.BestPerf)
	}
}

func TestChipPersistenceThroughPublicAPI(t *testing.T) {
	var buf bytes.Buffer
	if err := h2onas.SaveChip(&buf, h2onas.TPUv4i()); err != nil {
		t.Fatal(err)
	}
	chip, err := h2onas.LoadChip(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if chip.Name != "TPUv4i" {
		t.Fatalf("chip name %q", chip.Name)
	}
}

func TestServingAnalysisThroughPublicAPI(t *testing.T) {
	build := func(batch int) *h2onas.Graph { return h2onas.EfficientNetX(0).ServingGraph(batch) }
	qps, batch := h2onas.MaxQPSUnderP99(build, h2onas.TPUv4i(), 50e-3)
	if qps <= 0 || batch < 1 {
		t.Fatalf("MaxQPSUnderP99 = (%v, %d)", qps, batch)
	}
	if ok, fp := h2onas.FitsMemory(build(8), h2onas.TPUv4i(), h2onas.SimOptions{}); !ok || fp.Total <= 0 {
		t.Fatalf("B0 must fit TPUv4i HBM: %+v", fp)
	}
}

func TestMultiTrialThroughPublicAPI(t *testing.T) {
	sp := h2onas.NewCNNSpace(h2onas.DefaultCNNConfig())
	rw, _ := h2onas.NewReward(h2onas.ReLUReward, h2onas.Objective{Name: "t", Target: 1, Beta: -1})
	s := &h2onas.AnalyticSearcher{
		Space:   sp.Space,
		Quality: func(a h2onas.Assignment) float64 { return -float64(a[0]) },
		Perf:    func(h2onas.Assignment) []float64 { return []float64{0.5} },
		Reward:  rw,
	}
	rnd, err := s.Search(h2onas.SearchConfig{Shards: 1, Steps: 50, Seed: 1, Strategy: h2onas.NewRandomSearch(sp.Space)})
	if err != nil {
		t.Fatal(err)
	}
	evo, err := s.Search(h2onas.SearchConfig{Shards: 1, Steps: 50, Seed: 1,
		Strategy: h2onas.NewEvolution(sp.Space, h2onas.EvolutionOpts{})})
	if err != nil {
		t.Fatal(err)
	}
	if rnd.Best == nil || evo.Best == nil {
		t.Fatal("multi-trial searches returned no candidates")
	}
}

func TestGraphDotThroughPublicAPI(t *testing.T) {
	var buf bytes.Buffer
	if err := h2onas.WriteDot(&buf, h2onas.CoAtNet(0).Graph()); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "digraph") {
		t.Fatal("dot output malformed")
	}
}
