package vitnet

import (
	"math"
	"testing"

	"h2onas/internal/core"
	"h2onas/internal/datapipe"
	"h2onas/internal/hwsim"
	"h2onas/internal/nn"
	"h2onas/internal/reward"
	"h2onas/internal/space"
	"h2onas/internal/tensor"
)

func newSmall(seed uint64) (*space.ViTSpace, *Supernet, *datapipe.SeqStream) {
	vs := space.NewTransformerSpace(space.SmallViTConfig())
	cfg := datapipe.DefaultSeqConfig()
	sn := New(vs, cfg.Vocab, cfg.SeqLen, tensor.NewRNG(seed))
	return vs, sn, datapipe.NewSeqStream(cfg, seed)
}

func randomAssignment(vs *space.ViTSpace, rng *tensor.RNG) space.Assignment {
	a := make(space.Assignment, len(vs.Space.Decisions))
	for i, d := range vs.Space.Decisions {
		a[i] = rng.Intn(d.Arity())
	}
	return a
}

func TestForwardShape(t *testing.T) {
	vs, sn, stream := newSmall(1)
	b := stream.NextBatch(8)
	logits := sn.Forward(vs.BaselineAssignment(), b)
	if logits.Rows != 8 || logits.Cols != 1 {
		t.Fatalf("logits shape %dx%d", logits.Rows, logits.Cols)
	}
}

func TestForwardAnyCandidate(t *testing.T) {
	vs, sn, stream := newSmall(2)
	rng := tensor.NewRNG(3)
	b := stream.NextBatch(4)
	for trial := 0; trial < 40; trial++ {
		a := randomAssignment(vs, rng)
		logits := sn.Forward(a, b)
		for _, v := range logits.Data {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("trial %d: non-finite logit for %s", trial, vs.Space.Describe(a))
			}
		}
	}
}

func TestBackwardAnyCandidateFinite(t *testing.T) {
	vs, sn, stream := newSmall(4)
	rng := tensor.NewRNG(5)
	for trial := 0; trial < 15; trial++ {
		a := randomAssignment(vs, rng)
		b := stream.NextBatch(4)
		nn.ZeroGrads(sn.Params())
		_, dout := sn.Loss(a, b)
		sn.Backward(dout)
		for _, p := range sn.Params() {
			for _, g := range p.Grad.Data {
				if math.IsNaN(g) || math.IsInf(g, 0) {
					t.Fatalf("trial %d: non-finite grad in %s", trial, p.Name)
				}
			}
		}
	}
}

func TestGradCheckThroughTransformerSupernet(t *testing.T) {
	vs, sn, stream := newSmall(6)
	rng := tensor.NewRNG(7)
	a := randomAssignment(vs, rng)
	b := stream.NextBatch(3)

	nn.ZeroGrads(sn.Params())
	_, dout := sn.Loss(a, b)
	sn.Backward(dout)

	const eps = 1e-6
	checked := 0
	for _, p := range sn.Params() {
		if tensor.MaxAbs(p.Grad) == 0 {
			continue
		}
		grad := denseGrad(p)
		idx, best := 0, 0.0
		for i, g := range grad {
			if math.Abs(g) > best {
				idx, best = i, math.Abs(g)
			}
		}
		orig := p.Value.Data[idx]
		p.Value.Data[idx] = orig + eps
		up, _ := sn.Loss(a, b)
		p.Value.Data[idx] = orig - eps
		down, _ := sn.Loss(a, b)
		p.Value.Data[idx] = orig
		num := (up - down) / (2 * eps)
		if math.Abs(num-grad[idx]) > 2e-4*math.Max(1, math.Abs(num)) {
			t.Fatalf("param %s grad[%d]: analytic %v vs numeric %v", p.Name, idx, grad[idx], num)
		}
		checked++
		if checked >= 12 {
			break
		}
	}
	if checked < 6 {
		t.Fatalf("only %d params received gradient", checked)
	}
}

func TestTrainingImprovesQuality(t *testing.T) {
	vs, sn, stream := newSmall(8)
	a := vs.BaselineAssignment()
	opt := nn.NewAdam(0.003)
	before := sn.Quality(a, stream.NextBatch(512))
	for step := 0; step < 150; step++ {
		b := stream.NextBatch(64)
		nn.ZeroGrads(sn.Params())
		_, dout := sn.Loss(a, b)
		sn.Backward(dout)
		nn.ClipGradNorm(sn.Params(), 10)
		opt.Step(sn.Params())
	}
	after := sn.Quality(a, stream.NextBatch(512))
	if after <= before+0.03 {
		t.Fatalf("training did not improve quality: %v → %v", before, after)
	}
}

func TestReplicateSharesValues(t *testing.T) {
	_, sn, _ := newSmall(9)
	rep := sn.Replicate(tensor.NewRNG(10))
	sn.Params()[0].Value.Data[0] = 99
	if rep.Params()[0].Value.Data[0] != 99 {
		t.Fatal("replica must alias parameter values")
	}
}

func TestSeqStreamProperties(t *testing.T) {
	s := datapipe.NewSeqStream(datapipe.DefaultSeqConfig(), 1)
	b := s.NextBatch(64)
	if b.Size() != 64 || len(b.Tokens[0]) != 8 {
		t.Fatalf("batch shape wrong")
	}
	for _, toks := range b.Tokens {
		for _, tok := range toks {
			if tok < 0 || tok >= 64 {
				t.Fatalf("token %d out of vocab", tok)
			}
		}
	}
	var pos float64
	big := s.NextBatch(4000)
	for _, y := range big.Labels.Data {
		pos += y
	}
	if frac := pos / 4000; frac < 0.2 || frac > 0.8 {
		t.Fatalf("labels too skewed: %v", frac)
	}
}

func TestSeqBatchOrdering(t *testing.T) {
	s := datapipe.NewSeqStream(datapipe.DefaultSeqConfig(), 2)
	b := s.NextBatch(4)
	defer func() {
		if recover() == nil {
			t.Fatal("weights before arch must panic")
		}
	}()
	b.UseForWeights()
}

func TestTransformerSearchEndToEnd(t *testing.T) {
	vs := space.NewTransformerSpace(space.SmallViTConfig())
	chip := hwsim.TPUv4()
	perf := func(a space.Assignment) []float64 {
		g := vs.Graph(vs.Decode(a))
		r := hwsim.Simulate(g, chip, hwsim.Options{Mode: hwsim.Training, Chips: 8})
		return []float64{r.StepTime}
	}
	base := perf(vs.BaselineAssignment())
	rw := reward.MustNew(reward.ReLU,
		reward.Objective{Name: "train_step_time", Target: base[0], Beta: -2})
	s := &Searcher{
		VS:     vs,
		Reward: rw,
		Perf:   perf,
		Stream: datapipe.NewSeqStream(datapipe.DefaultSeqConfig(), 11),
	}
	res, err := s.Search(core.Config{
		Shards: 2, Steps: 25, BatchSize: 16, WarmupSteps: 5, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := vs.Space.Validate(res.Best); err != nil {
		t.Fatalf("best invalid: %v", err)
	}
	if len(res.History) != 25 {
		t.Fatalf("history %d", len(res.History))
	}
	if res.BestPerf[0] <= 0 {
		t.Fatalf("BestPerf %v", res.BestPerf)
	}
	if res.ExamplesSeen <= 0 {
		t.Fatal("no traffic consumed")
	}
}

func TestSearchValidates(t *testing.T) {
	s := &Searcher{}
	if _, err := s.Search(core.Config{Shards: 1, Steps: 1, BatchSize: 1}); err == nil {
		t.Fatal("incomplete searcher must be rejected")
	}
}

// TestArenaReachesEveryLayer: SetArena hands the arena to every layer of
// the network's one layer list, so once the arena is warm a forward and
// backward pass over alternating candidates draws no matrix from the
// heap pools.
func TestArenaReachesEveryLayer(t *testing.T) {
	vs, sn, stream := newSmall(11)
	rng := tensor.NewRNG(12)
	arena := tensor.NewArena()
	sn.SetArena(arena)
	defer func() {
		sn.SetArena(nil)
		arena.Drain()
	}()
	b := stream.NextBatch(4)
	a1, a2 := randomAssignment(vs, rng), randomAssignment(vs, rng)
	pass := func(a space.Assignment) {
		_, dout := sn.Loss(a, b)
		sn.Backward(dout)
	}
	for range 3 {
		pass(a1)
		pass(a2)
	}
	before := tensor.MatrixAllocs()
	pass(a1)
	pass(a2)
	if d := tensor.MatrixAllocs() - before; d != 0 {
		t.Fatalf("a warm pass pair allocated %d matrices outside the arena, want 0", d)
	}
}

// denseGrad returns p's gradient laid out like its value: a row-tracked
// param's packed slots (slot k holds row DirtyRows[k]) scattered to their
// rows, every other row zero.
func denseGrad(p *nn.Param) []float64 {
	if !p.RowSparse {
		return append([]float64(nil), p.Grad.Data...)
	}
	cols := p.Value.Cols
	g := make([]float64, len(p.Value.Data))
	for k, r := range p.DirtyRows {
		copy(g[int(r)*cols:(int(r)+1)*cols], p.Grad.Data[k*cols:(k+1)*cols])
	}
	return g
}
