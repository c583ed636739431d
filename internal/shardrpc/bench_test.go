package shardrpc

import (
	"io"
	"log"
	"runtime"
	"testing"

	"h2onas/internal/core"
	"h2onas/internal/datapipe"
	"h2onas/internal/space"
	"h2onas/internal/supernet"
	"h2onas/internal/tensor"
)

// rpcConfig is the benchmark's rpc_search step: the small DLRM space on
// 2 shards at batch 64.
func rpcConfig(seed uint64, steps int) core.Config {
	cfg := core.DefaultConfig()
	cfg.Shards, cfg.BatchSize, cfg.WarmupSteps, cfg.Steps, cfg.Seed = 2, 64, 8, steps, seed
	return cfg
}

// rpcSearch runs one search of the given length over a fresh 2-worker
// loopback fleet and returns the heap allocations and bytes the whole
// process made — coordinator and workers share it, so both sides of the
// wire are counted.
func rpcSearch(t testing.TB, steps int) (allocs, bytes uint64) {
	t.Helper()
	f := startFleet(t, 2)
	tr, err := Dial(f.addrs, Options{Seed: 29})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	cfg := rpcConfig(29, steps)
	cfg.Transport = tr
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := testSearcher(t, 29).Search(cfg); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc
}

// The heap a steady-state sampled step of the 2-worker loopback DLRM
// search may take, coordinator and both workers together. The budgets
// were set at 18 allocations of ~79.3 KB plus at most 10 %; since the
// fan-out runs pre-bound per-worker funcs a step makes 12–14 allocations
// of ~79.3 KB (GOMAXPROCS 1, 2 and 4), one more or less with
// scheduling. What remains is the in-process step plane's
// — two coordinator-drawn batches (~48 KB), the sampled assignments, the
// candidate log (see core's TestSteadyStateSearchStepAllocs): no
// fan-out, frame, decode or weight or gradient copy allocates. Before
// the wire plane reused its buffers a step made ~1,700 allocations of
// ~28 MB.
const (
	rpcStepAllocBudget = 19
	rpcStepByteBudget  = 87_000
)

// TestSteadyStateRPCStepAllocs is the allocation gate for the wire plane:
// exec and result frames encode from and decode into model storage
// through per-connection buffers. Two same-seed searches differ only in
// their number of sampled steps, so the difference of their counts
// divided by the difference of their lengths is the per-step cost, free
// of dialing, handshakes, the first full weight sync and final
// evaluation. Skipped under -race, whose instrumentation allocates.
func TestSteadyStateRPCStepAllocs(t *testing.T) {
	if raceDetector {
		t.Skip("the race detector's own allocations swamp the count")
	}
	const short, long = 40, 120
	a0, b0 := rpcSearch(t, short)
	a1, b1 := rpcSearch(t, long)
	allocs := (float64(a1) - float64(a0)) / (long - short)
	bytes := (float64(b1) - float64(b0)) / (long - short)
	t.Logf("%.0f heap allocations and %.0f bytes per sampled step (budgets %d, %d)", allocs, bytes, rpcStepAllocBudget, rpcStepByteBudget)
	if allocs > rpcStepAllocBudget || bytes > rpcStepByteBudget {
		t.Fatalf("steady-state step made %.0f heap allocations of %.0f bytes, budgets %d and %d", allocs, bytes, rpcStepAllocBudget, rpcStepByteBudget)
	}
}

// BenchmarkRPCStep measures one sampled step of the 2-worker loopback
// DLRM search (rpc_search's shape): one benchmark iteration is one full
// search step — sampling, the exec broadcast with its weight delta, both
// workers' forward/backward, the gradient collect, the spine update and
// the policy update. Dialing, handshakes and the warm-up are outside the
// timer.
func BenchmarkRPCStep(b *testing.B) {
	quiet(b)
	f := startFleet(b, 2)
	tr, err := Dial(f.addrs, Options{Seed: 7})
	if err != nil {
		b.Fatal(err)
	}
	defer tr.Close()
	cfg := rpcConfig(7, b.N)
	cfg.Transport = tr
	started := false
	cfg.Progress = func(core.StepInfo) {
		if !started {
			started = true
			b.ReportAllocs()
			b.ResetTimer()
		}
	}
	if _, err := testSearcher(b, 7).Search(cfg); err != nil {
		b.Fatal(err)
	}
}

// quiet silences the workers' session logs for the rest of a benchmark,
// so they do not split its result line.
func quiet(b *testing.B) {
	prev := log.Writer()
	log.SetOutput(io.Discard)
	b.Cleanup(func() { log.SetOutput(prev) })
}

// shardStep runs one real shard step of the small DLRM space, batch 64,
// on a fresh worker session with random weights, and returns the session
// — its params hold the step's dirty gradients — and the step's batch.
func shardStep(t testing.TB) (*workerSession, *datapipe.Batch) {
	t.Helper()
	s, err := newSession(&hello{Space: space.SmallDLRMConfig()})
	if err != nil {
		t.Fatal(err)
	}
	rng := tensor.NewRNG(5)
	for _, p := range s.params {
		for i := range p.Value.Data {
			p.Value.Data[i] = 0.1 * rng.Norm()
		}
	}
	cfg := s.ds.Config
	batch := datapipe.NewStream(datapipe.CTRConfig{NumTables: cfg.NumTables, Vocab: cfg.BaseVocab, NumDense: cfg.NumDense}, 5).NextBatch(64)
	batch.UseForArch()
	_, dout := s.net.Loss(s.ds.BaselineAssignment(), batch)
	batch.UseForWeights()
	s.net.Backward(dout)
	return s, batch
}

// BenchmarkEncodeExec measures the coordinator's side of one steady-state
// exec: a delta of the rows a step touched, read from the weights where
// they live, and a batch-64 batch, encoded into a reused frame buffer.
func BenchmarkEncodeExec(b *testing.B) {
	s, batch := shardStep(b)
	req := execReq{
		Step: 1, Assignment: s.ds.BaselineAssignment(),
		WeightsMode: weightsDelta, FromVersion: 1, ToVersion: 2,
		NumExamples: batch.Dense.Rows, NumDense: batch.Dense.Cols,
		Dense: batch.Dense.Data, Labels: batch.Labels.Data, Sparse: batch.Sparse,
	}
	// The step's gradient rows are the rows the next delta ships.
	for _, g := range s.dirtyGrads() {
		v := s.params[g.Param].Value
		req.Delta = append(req.Delta, tensorPatch{Param: g.Param, Rows: g.Rows, Values: v.Data, Cols: g.Cols})
	}
	buf := encodeExec(newFrame(nil), &req)
	b.SetBytes(int64(len(buf)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = encodeExec(newFrame(buf), &req)
	}
}

// BenchmarkDecodeExecResult measures the coordinator's side of one
// steady-state exec result: decode the frame's views and copy the
// gradients into a ghost replica.
func BenchmarkDecodeExecResult(b *testing.B) {
	s, _ := shardStep(b)
	payload := encodeExecResult(nil, &execResult{Step: 1, Version: 2, Grads: s.dirtyGrads()})
	ghost := supernet.NewWithOptions(s.ds, tensor.NewRNG(1), supernet.Options{})
	var v resultView
	b.SetBytes(int64(len(payload)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := decodeExecResult(payload, &v); err != nil {
			b.Fatal(err)
		}
		if err := applyGrads(ghost, v.Grads); err != nil {
			b.Fatal(err)
		}
	}
}
