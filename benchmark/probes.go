package main

import (
	"bytes"
	"fmt"
	"path/filepath"
	"time"

	"h2onas/internal/checkpoint"
	"h2onas/internal/controller"
	"h2onas/internal/core"
	"h2onas/internal/datapipe"
	"h2onas/internal/hwsim"
	"h2onas/internal/jobs"
	"h2onas/internal/nn"
	"h2onas/internal/perfmodel"
	"h2onas/internal/space"
	"h2onas/internal/supernet"
	"h2onas/internal/tensor"
	"h2onas/internal/tensor/tune"
	"h2onas/internal/vitnet"
)

// prober runs isolated timed calls into one layer's public functions, for
// what a search keeps private behind its loop. Each probe gets an equal
// slice of the run's probe budget.
type prober struct {
	each time.Duration
}

func newProber(budget time.Duration, probes int) *prober {
	return &prober{each: budget / time.Duration(probes)}
}

// timePass times a forward and a backward pass separately; reset runs
// untimed between pairs.
func (p *prober) timePass(fwd, bwd, reset func()) (fwdUs, bwdUs float64) {
	var f, b []float64
	deadline := time.Now().Add(2 * p.each)
	for len(f) < 5 || time.Now().Before(deadline) {
		reset()
		t0 := time.Now()
		fwd()
		t1 := time.Now()
		bwd()
		t2 := time.Now()
		f = append(f, us(t1.Sub(t0)))
		b = append(b, us(t2.Sub(t1)))
	}
	// The first pair filled pools and lazily built buffers.
	return median(f[1:]), median(b[1:])
}

func randMatrix(rows, cols int, rng *tensor.RNG) *tensor.Matrix {
	return tensor.RandN(rows, cols, 1, rng)
}

// matmulGflops times one matmul variant at (m, k, n) and returns the rate
// with the operation count and the compulsory bytes moved (read both
// operands, write the result): computed, not measured, traffic.
func (p *prober) matmulGflops(m, k, n int, run func(a, b, out *tensor.Matrix), shape func(m, k, n int) (a, b, out [2]int)) (gflops, flops, bytes float64) {
	rng := tensor.NewRNG(2)
	sa, sb, so := shape(m, k, n)
	a, b, out := randMatrix(sa[0], sa[1], rng), randMatrix(sb[0], sb[1], rng), tensor.New(so[0], so[1])
	batch := 1
	if m*k*n < 1<<22 {
		batch = 8
	}
	d := timeCalls(p.each, batch, func() { run(a, b, out) })
	flops = 2 * float64(m) * float64(k) * float64(n)
	bytes = 8 * float64(m*k+k*n+m*n)
	return flops / d.Seconds() / 1e9, flops, bytes
}

func shapeAB(m, k, n int) (a, b, out [2]int)     { return [2]int{m, k}, [2]int{k, n}, [2]int{m, n} }
func shapeTransA(m, k, n int) (a, b, out [2]int) { return [2]int{m, k}, [2]int{m, n}, [2]int{k, n} }
func shapeTransB(m, k, n int) (a, b, out [2]int) { return [2]int{m, n}, [2]int{k, n}, [2]int{m, k} }

// rooflineFraction is achieved ÷ the host roofline at the kernel's
// operational intensity — the paper's instrument turned on ourselves. From
// a CPU run the bytes are the computed compulsory traffic.
func rooflineFraction(gflops, flops, bytes float64) float64 {
	return gflops * 1e9 / hwsim.PeakRoofline(tune.HostChip(), flops/bytes)
}

// axpy times the innermost kernel at a ViT hidden row width.
func (p *prober) axpy(m map[string]float64) {
	const n = 768
	rng := tensor.NewRNG(4)
	dst, src := make([]float64, n), make([]float64, n)
	for i := range src {
		src[i] = rng.Norm()
	}
	d := timeCalls(p.each, 256, func() { tensor.Axpy(dst, 0.0001, src) })
	m["tensor.axpy_gbps"] = 3 * 8 * n / d.Seconds() / 1e9
}

// tensorDLRM probes the kernels at the DLRM step's operand sizes: batch 64
// against the top-MLP weights, one worker as a shard replica gets.
func (p *prober) tensorDLRM(m map[string]float64) {
	g, flops, bytes := p.matmulGflops(64, 160, 64, func(a, b, out *tensor.Matrix) { tensor.MatMulIntoN(a, b, out, 1) }, shapeAB)
	m["tensor.matmul_dlrm_gflops"] = g
	m["tensor.roofline_fraction_dlrm"] = rooflineFraction(g, flops, bytes)
	m["tensor.matmul_transa_dlrm_gflops"], _, _ = p.matmulGflops(64, 160, 64, func(a, b, out *tensor.Matrix) { tensor.MatMulTransAIntoN(a, b, out, 1) }, shapeTransA)
	m["tensor.matmul_transb_dlrm_gflops"], _, _ = p.matmulGflops(64, 160, 64, func(a, b, out *tensor.Matrix) { tensor.MatMulTransBIntoN(a, b, out, 1) }, shapeTransB)
	p.axpy(m)
}

// tensorViT probes the cache-blocked schedule on one worker: a 768×768
// weight operand is 4.7 MB, past the 1 MB threshold that engages blocking.
// (ViT-Base's 768×3072 FFN shape takes half a second a call on the
// reference host — too long for a probe slice — and runs the same schedule.)
func (p *prober) tensorViT(m map[string]float64) {
	g, flops, bytes := p.matmulGflops(196, 768, 768, func(a, b, out *tensor.Matrix) { tensor.MatMulIntoN(a, b, out, 1) }, shapeAB)
	m["tensor.matmul_vit_gflops"] = g
	m["tensor.roofline_fraction_vit"] = rooflineFraction(g, flops, bytes)
	p.axpy(m)
}

// tensorDense probes the perf-model's eager dense shape.
func (p *prober) tensorDense(m map[string]float64) {
	m["tensor.matmul_dense_gflops"], _, _ = p.matmulGflops(256, 128, 128, func(a, b, out *tensor.Matrix) { tensor.MatMulIntoN(a, b, out, 0) }, shapeAB)
}

func maxValue(sp *space.Space, decision string) int {
	best := 0
	for _, v := range sp.Decisions[sp.Lookup(decision)].Values {
		if int(v) > best {
			best = int(v)
		}
	}
	return best
}

// nnDLRM probes the supernet's layer types at SmallDLRM's maximal shapes,
// batch 64, with an arena as in a steady-state step, then the spine on 8
// replicas holding real post-backward gradients.
func (p *prober) nnDLRM(m map[string]float64, e *dlrmEnv, seed uint64) {
	const batch = 64
	rng := tensor.NewRNG(seed)
	arena := tensor.NewArena()
	defer arena.Drain()
	in := supernet.New(e.ds, tensor.ZeroRNG()).ConcatWidth()
	out := maxValue(e.ds.Space, "top0_width")

	low := nn.NewLowRankDense(in, out, min(in, out), rng.Split())
	low.Arena = arena
	x, g := randMatrix(batch, in, rng), randMatrix(batch, out, rng)
	m["nn.lowrank_fwd_us"], m["nn.lowrank_bwd_us"] = p.timePass(
		func() { low.Forward(x) }, func() { low.Backward(g) },
		func() { arena.Release(); nn.ZeroGrads(low.Params()) })

	masked := nn.NewMaskedDense(in, out, rng.Split())
	masked.Arena = arena
	m["nn.masked_fwd_us"], m["nn.masked_bwd_us"] = p.timePass(
		func() { masked.Forward(x) }, func() { masked.Backward(g) },
		func() { arena.Release(); nn.ZeroGrads(masked.Params()) })

	width := maxValue(e.ds.Space, "emb0_width")
	emb := nn.NewEmbedding(maxValue(e.ds.Space, "emb0_vocab"), width, rng.Split())
	emb.Arena = arena
	bags := e.searcher(seed).Stream.NextBatch(batch).Sparse[0]
	ge := randMatrix(batch, width, rng)
	m["nn.embedding_fwd_us"], m["nn.embedding_bwd_us"] = p.timePass(
		func() { emb.Forward(bags) }, func() { emb.Backward(ge) },
		func() { arena.Release(); nn.ZeroGrads(emb.Params()) })

	p.spine(m, e, seed)
}

// gradState is a copy of a param list's dirty gradients, so a probe can put
// the exact post-backward state back before every timed call.
type gradState struct {
	idx  []int
	data [][]float64
	rows [][]int32
}

func saveGrads(params []*nn.Param) gradState {
	var s gradState
	for i, p := range params {
		if p.Dirty {
			s.idx = append(s.idx, i)
			s.data = append(s.data, append([]float64(nil), p.Grad.Data...))
			s.rows = append(s.rows, append([]int32(nil), p.DirtyRows...))
		}
	}
	return s
}

func (s gradState) restore(params []*nn.Param) {
	for k, i := range s.idx {
		p := params[i]
		copy(p.Grad.Data, s.data[k])
		p.ClearRows()
		for _, r := range s.rows[k] {
			p.MarkRow(int(r))
		}
		p.Dirty = true
	}
}

func (p *prober) spine(m map[string]float64, e *dlrmEnv, seed uint64) {
	const shards = 8
	rng := tensor.NewRNG(seed)
	master := supernet.New(e.ds, rng.Split())
	ctrl := controller.New(e.ds.Space, controller.DefaultConfig())
	stream := e.searcher(seed).Stream
	replicas := make([][]*nn.Param, shards)
	saved := make([]gradState, shards)
	for i := range replicas {
		r := master.Replicate(rng.Split())
		replicas[i] = r.Params()
		b := stream.NextBatch(64)
		b.UseForArch()
		_, dout := r.Loss(ctrl.Policy.Sample(rng), b)
		b.UseForWeights()
		r.Backward(dout)
		saved[i] = saveGrads(replicas[i])
	}
	sp := nn.NewSpine(master.Params(), nn.NewAdam(0.003), 10)
	sp.Reduce(replicas)
	reduced := saveGrads(master.Params())
	var reduceMs, clipMs []float64
	deadline := time.Now().Add(2 * p.each)
	for len(reduceMs) < 5 || time.Now().Before(deadline) {
		for _, q := range master.Params() {
			if q.Dirty {
				q.Grad.Zero()
				q.ClearRows()
				q.Dirty = false
			}
		}
		for i := range saved {
			saved[i].restore(replicas[i])
		}
		t0 := time.Now()
		sp.Reduce(replicas)
		reduceMs = append(reduceMs, ms(time.Since(t0)))
		reduced.restore(master.Params())
		sp.Reduce(nil) // rebuild the dirty worklist from the flags
		t0 = time.Now()
		sp.ClipStep()
		clipMs = append(clipMs, ms(time.Since(t0)))
	}
	m["nn.spine_reduce_ms"], m["nn.spine_clipstep_ms"] = median(reduceMs), median(clipMs)
}

// supernetCold probes what every search pays once: building the master
// with its 8 replicas, and one final-evaluation Quality call.
func (p *prober) supernetCold(m map[string]float64, e *dlrmEnv, seed uint64) {
	var master *supernet.Supernet
	m["supernet.new_ms"] = ms(timeCalls(p.each, 1, func() {
		rng := tensor.NewRNG(seed)
		master = supernet.New(e.ds, rng.Split())
		for i := 0; i < 8; i++ {
			master.Replicate(rng.Split())
		}
	}))
	best := core.MaxAssignment(e.ds.Space)
	stream := e.searcher(seed).Stream
	m["supernet.quality_ms"] = ms(timeCalls(p.each, 1, func() {
		b := stream.NextBatch(64)
		b.UseForArch()
		master.Quality(best, b)
	}))
}

// datapipeCTR probes batch synthesis and the prefetch pipeline's hand-off
// with a consumer that never lets the buffer fill.
func (p *prober) datapipeCTR(m map[string]float64, e *dlrmEnv, seed uint64) {
	stream := e.searcher(seed).Stream
	d := timeCalls(p.each, 4, func() { stream.NextBatch(64) })
	m["datapipe.next_batch_us"] = us(d)
	m["datapipe.examples_per_s"] = 64 / d.Seconds()
	pipe := datapipe.NewPipeline(e.searcher(seed+1).Stream, 64, 16)
	defer pipe.Close()
	m["datapipe.pipeline_next_wait_us"] = us(timeCalls(p.each, 8, func() { pipe.Next() }))
}

// vit probes the transformer stack: attention at SmallViT's maximal hidden
// width over 16×8 tokens, sequence batch synthesis, and the supernet's
// forward/backward on policy-sampled candidates.
func (p *prober) vit(m map[string]float64, vs *space.ViTSpace, seed uint64) {
	seqCfg := datapipe.DefaultSeqConfig()
	const batch = 16
	rng := tensor.NewRNG(seed)
	arena := tensor.NewArena()
	defer arena.Drain()
	dim := vs.Config.MaxHidden
	att := nn.NewMaskedAttention(dim, rng.Split())
	att.SetArena(arena)
	att.SetActive(dim, seqCfg.SeqLen)
	x, g := randMatrix(batch*seqCfg.SeqLen, dim, rng), randMatrix(batch*seqCfg.SeqLen, dim, rng)
	m["nn.attention_fwd_us"], m["nn.attention_bwd_us"] = p.timePass(
		func() { att.Forward(x) }, func() { att.Backward(g) },
		func() { arena.Release(); nn.ZeroGrads(att.Params()) })

	stream := datapipe.NewSeqStream(seqCfg, seed)
	m["datapipe.seq_next_batch_us"] = us(timeCalls(p.each, 4, func() { stream.NextBatch(batch) }))

	net := vitnet.New(vs, seqCfg.Vocab, seqCfg.SeqLen, rng.Split())
	netArena := tensor.NewArena()
	net.SetArena(netArena)
	defer netArena.Drain()
	ctrl := controller.New(vs.Space, controller.DefaultConfig())
	var dout *tensor.Matrix
	fwd, bwd := p.timePass(
		func() {
			b := stream.NextBatch(batch)
			b.UseForArch()
			_, dout = net.Loss(ctrl.Policy.Sample(rng), b)
		},
		func() { net.Backward(dout) },
		func() { nn.ZeroGrads(net.Params()) })
	m["vitnet.forward_ms_p50"], m["vitnet.backward_ms_p50"] = fwd/1e3, bwd/1e3
}

// denseTrainStep probes one eager training step at the perf-model's shape:
// Dense forward and backward, gradient clip, Adam step, gradient clear.
func (p *prober) denseTrainStep(m map[string]float64) {
	rng := tensor.NewRNG(3)
	layer := nn.NewDense(128, 128, rng)
	params := layer.Params()
	opt := nn.NewAdam(1e-3)
	x, g := randMatrix(256, 128, rng), randMatrix(256, 128, rng)
	m["nn.dense_train_step_us"] = us(timeCalls(p.each, 1, func() {
		layer.Forward(x)
		nn.ZeroGrads(params)
		layer.Backward(g)
		nn.ClipGradNorm(params, 5)
		opt.Step(params)
	}))
}

// simulators probes hwsim and graph building on both analytic spaces.
func (p *prober) simulators(m map[string]float64, e *dlrmEnv, vs *space.ViTSpace, seed uint64) {
	chip := hwsim.TPUv4()
	da := e.ds.BaselineAssignment()
	dg := e.ds.Graph(e.ds.Decode(da))
	m["hwsim.simulate_dlrm_us"] = us(timeCalls(p.each, 16, func() {
		hwsim.Simulate(dg, chip, hwsim.Options{Mode: hwsim.Training, Chips: e.ds.Config.Chips})
	}))
	va := core.MaxAssignment(vs.Space)
	vg := vs.Graph(vs.Decode(va))
	m["hwsim.simulate_vit_us"] = us(timeCalls(p.each, 16, func() {
		hwsim.Simulate(vg, chip, hwsim.Options{Mode: hwsim.Training, Chips: 128})
	}))
	m["space.graph_build_us"] = us(timeCalls(p.each, 16, func() { vs.Graph(vs.Decode(va)) }))
	const n = 256
	d := timeCalls(p.each, 1, func() { core.SimulatorSamples(e.ds, chip, n, seed) })
	m["hwsim.samples_per_s"] = n / d.Seconds()
}

func (p *prober) predict(m map[string]float64, model *perfmodel.Model, features []float64) {
	m["perfmodel.predict_us"] = us(timeCalls(p.each, 64, func() { model.Predict(features) }))
}

// checkpoints probes the snapshot codec and a durable save. The snapshot
// is a real one: a short search checkpoints into memory and the newest
// snapshot is loaded back.
func (p *prober) checkpoints(m map[string]float64, e *dlrmEnv, z searchSize, seed uint64, dir string) error {
	mem := checkpoint.NewMemFS()
	cfg := e.config(z, seed)
	cfg.CheckpointDir, cfg.CheckpointFS, cfg.CheckpointEvery = "ckpt", mem, z.total()
	if _, err := e.searcher(seed).Search(cfg); err != nil {
		return err
	}
	snap, _, err := (&checkpoint.Manager{Dir: "ckpt", FS: mem}).LoadLatest()
	if err != nil {
		return fmt.Errorf("loading probe snapshot: %w", err)
	}
	var data []byte
	m["checkpoint.encode_ms"] = ms(timeCalls(p.each, 1, func() { data = checkpoint.EncodeBytes(snap) }))
	m["checkpoint.snapshot_kb"] = float64(len(data)) / 1024
	m["checkpoint.decode_ms"] = ms(timeCalls(p.each, 1, func() {
		if _, derr := checkpoint.Decode(bytes.NewReader(data)); derr != nil {
			err = derr
		}
	}))
	mgr := &checkpoint.Manager{Dir: filepath.Join(dir, "probe-ckpt"), Retain: 2}
	m["checkpoint.save_ms"] = ms(timeCalls(p.each, 1, func() {
		snap.Step++
		if _, serr := mgr.Save(snap); serr != nil {
			err = serr
		}
	}))
	return err
}

// journal probes the jobs layer under HTTP: a direct Submit on a scratch
// service and a raw journal Put.
func (p *prober) journal(m map[string]float64, spec jobs.Spec, dir string) error {
	store, err := jobs.OpenStore(filepath.Join(dir, "probe-store"), jobs.StoreOptions{})
	if err != nil {
		return err
	}
	rec := jobs.Record{ID: store.NextID(), Tenant: "probe", State: jobs.StateQueued, Spec: spec.Normalize()}
	m["jobs.journal_put_us"] = us(timeCalls(p.each, 1, func() {
		if perr := store.Put(rec); perr != nil {
			err = perr
		}
	}))
	if err != nil {
		return err
	}
	// One-step jobs keep the scratch service's single worker nearly idle
	// while Submit is timed.
	svc, err := jobs.Open(filepath.Join(dir, "probe-svc"), jobs.Options{Workers: 1, TenantQuota: 1 << 20, MaxQueue: 1 << 20})
	if err != nil {
		return err
	}
	defer svc.Close()
	tiny := jobs.Spec{Steps: 1, Shards: 1, Batch: 1, Warmup: 1}
	m["jobs.submit_direct_us"] = us(timeCalls(p.each, 1, func() {
		if _, serr := svc.Submit("probe", tiny); serr != nil {
			err = serr
		}
	}))
	return err
}
