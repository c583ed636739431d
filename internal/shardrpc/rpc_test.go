package shardrpc

import (
	"errors"
	"net"
	"strings"
	"testing"
	"time"

	"h2onas/internal/controller"
	"h2onas/internal/core"
	"h2onas/internal/datapipe"
	"h2onas/internal/hwsim"
	"h2onas/internal/metrics"
	"h2onas/internal/reward"
	"h2onas/internal/space"
)

// testClock freezes breaker/backoff time so degraded runs are
// deterministic: an opened breaker never cools down within a test.
type testClock struct{ now time.Time }

func (c *testClock) Now() time.Time      { return c.now }
func (c *testClock) Sleep(time.Duration) {}

func testSearcher(t testing.TB, seed uint64) *core.Searcher {
	t.Helper()
	ds := space.NewDLRMSpace(space.SmallDLRMConfig())
	obj := &core.DLRMObjectives{DS: ds, Chip: hwsim.TPUv4()}
	base := obj.BaselinePerf()
	rw := reward.MustNew(reward.ReLU,
		reward.Objective{Name: "train_step_time", Target: base[0], Beta: -2},
		reward.Objective{Name: "serving_memory", Target: base[1], Beta: -1},
	)
	stream := datapipe.NewStream(datapipe.CTRConfig{
		NumTables: ds.Config.NumTables,
		Vocab:     ds.Config.BaseVocab,
		NumDense:  ds.Config.NumDense,
	}, seed)
	return &core.Searcher{DS: ds, Reward: rw, Perf: obj.Perf, Stream: stream}
}

func testConfig(seed uint64) core.Config {
	return core.Config{
		Shards:      3,
		Steps:       10,
		BatchSize:   16,
		WarmupSteps: 4,
		WeightLR:    0.003,
		Controller:  controller.Config{LearningRate: 0.1, BaselineMomentum: 0.9, EntropyWeight: 1e-3},
		Seed:        seed,
	}
}

// fleet runs n shard workers on loopback listeners.
type fleet struct {
	workers []*Worker
	addrs   []string
}

func startFleet(t testing.TB, n int) *fleet {
	t.Helper()
	f := &fleet{}
	for i := 0; i < n; i++ {
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		w := NewWorker()
		go w.Serve(lis)
		f.workers = append(f.workers, w)
		f.addrs = append(f.addrs, lis.Addr().String())
	}
	t.Cleanup(func() {
		for _, w := range f.workers {
			w.Drain()
		}
		for _, w := range f.workers {
			w.Wait()
		}
	})
	return f
}

func requireSameHistory(t *testing.T, golden, got []core.StepInfo) {
	t.Helper()
	if len(golden) != len(got) {
		t.Fatalf("history length %d, golden %d", len(got), len(golden))
	}
	for i := range golden {
		if golden[i] != got[i] {
			t.Fatalf("history[%d] = %+v, golden %+v", i, got[i], golden[i])
		}
	}
}

func requireSameBest(t *testing.T, golden, got *core.Result) {
	t.Helper()
	if len(golden.Best) != len(got.Best) {
		t.Fatalf("Best length %d, golden %d", len(got.Best), len(golden.Best))
	}
	for i := range golden.Best {
		if golden.Best[i] != got.Best[i] {
			t.Fatalf("Best = %v, golden %v", got.Best, golden.Best)
		}
	}
}

// TestDegradedRemoteRunReproducesInProcess drains one worker mid-run and
// requires (a) the search completes degraded rather than failing, (b) the
// drop is monotone from a recorded first step, and (c) re-running
// in-process with the same shard failed from the same step reproduces the
// degraded trajectory bit for bit — the property the CI distributed-smoke
// job asserts across real processes.
func TestDegradedRemoteRunReproducesInProcess(t *testing.T) {
	const victim = 2
	f := startFleet(t, 3)
	clk := &testClock{now: time.Unix(1754400000, 0)}
	tr, err := Dial(f.addrs, Options{Seed: 7, Clock: clk})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	cfg := testConfig(7)
	cfg.Transport = tr
	drained := false
	cfg.Progress = func(info core.StepInfo) {
		if info.Step == 2 && !drained {
			drained = true
			f.workers[victim].Drain()
			f.workers[victim].Wait()
		}
	}
	degraded, err := testSearcher(t, 7).Search(cfg)
	if err != nil {
		t.Fatalf("degraded run failed instead of completing: %v", err)
	}
	firstDrop := degraded.ShardFirstDrop[victim]
	if firstDrop < 0 {
		t.Fatal("victim shard never dropped")
	}
	for i, d := range degraded.ShardFirstDrop {
		if i != victim && d != -1 {
			t.Fatalf("healthy shard %d dropped at step %d", i, d)
		}
	}

	repro := testConfig(7)
	repro.Clock = clk
	repro.ShardFault = func(step, shard, attempt int) error {
		if shard == victim && step >= firstDrop {
			return errors.New("injected: worker gone")
		}
		return nil
	}
	inproc, err := testSearcher(t, 7).Search(repro)
	if err != nil {
		t.Fatal(err)
	}
	if inproc.ShardFirstDrop[victim] != firstDrop {
		t.Fatalf("in-process first drop %d, remote %d", inproc.ShardFirstDrop[victim], firstDrop)
	}
	requireSameBest(t, inproc, degraded)
	requireSameHistory(t, inproc.History, degraded.History)
	if inproc.FinalQuality != degraded.FinalQuality {
		t.Fatalf("FinalQuality %v degraded-remote, %v reproduced in-process",
			degraded.FinalQuality, inproc.FinalQuality)
	}
}

// TestWorkerRejoinsWithFullSync drains a worker's connections and replaces
// its listener with a fresh worker on the same address, forcing the
// coordinator through the redial path mid-run. The rejoined worker starts
// weightless, so correctness depends on the reconnect handshake resetting
// its acked version and triggering a full sync — and the run must stay
// bit-identical to in-process because only step *membership*, never step
// *content*, may change. Drop and rejoin both happen between steps, so no
// step is lost and the trajectory matches the fault-free one.
func TestWorkerRejoinsWithFullSync(t *testing.T) {
	golden, err := testSearcher(t, 13).Search(testConfig(13))
	if err != nil {
		t.Fatal(err)
	}

	const victim = 1
	f := startFleet(t, 3)
	tr, err := Dial(f.addrs, Options{Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	reg := metrics.New()
	cfg := testConfig(13)
	cfg.Transport = tr
	cfg.Metrics = reg
	bounced := false
	cfg.Progress = func(info core.StepInfo) {
		if info.Step != 1 || bounced {
			return
		}
		bounced = true
		// Stop the victim and immediately stand a fresh worker up on the
		// same address; the coordinator's next call fails, redials, and
		// must full-sync the newcomer.
		f.workers[victim].Drain()
		f.workers[victim].Wait()
		lis, err := net.Listen("tcp", f.addrs[victim])
		if err != nil {
			t.Errorf("rebinding %s: %v", f.addrs[victim], err)
			return
		}
		w := NewWorker()
		go w.Serve(lis)
		f.workers[victim] = w
	}
	remote, err := testSearcher(t, 13).Search(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !bounced {
		t.Fatal("worker was never bounced")
	}
	for i, d := range remote.ShardFirstDrop {
		if d != -1 {
			t.Fatalf("shard %d dropped at step %d; the bounce should be invisible", i, d)
		}
	}
	requireSameBest(t, golden, remote)
	requireSameHistory(t, golden.History, remote.History)
	if golden.FinalQuality != remote.FinalQuality {
		t.Fatal("FinalQuality drifted across a worker bounce")
	}
	if got := reg.Counter("shardrpc_redials_total").Value(); got == 0 {
		t.Fatal("no redial recorded")
	}
	// 3 at bind + 1 after the bounce.
	if got := reg.Counter("shardrpc_full_syncs_total").Value(); got != 4 {
		t.Fatalf("full syncs = %d, want 4", got)
	}
}

// TestFullSyncFrameNotKept: a full weight sync's frame is a whole copy of
// the weights, and neither end keeps it once it has landed (see
// connBufs); a step without a sync keeps its buffer for the next one.
func TestFullSyncFrameNotKept(t *testing.T) {
	f := startFleet(t, 3)
	tr, err := Dial(f.addrs, Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	cfg := testConfig(3)
	cfg.Transport = tr
	if _, err := testSearcher(t, 3).Search(cfg); err != nil {
		t.Fatal(err)
	}
	weights := 0
	for _, p := range tr.params {
		weights += 8 * len(p.Value.Data)
	}
	for i, w := range tr.workers {
		if c := cap(w.bufs.tx); c >= weights {
			t.Errorf("coordinator still holds a %d-byte frame for shard %d; the weights are %d bytes", c, i, weights)
		}
	}

	s, err := newSession(&hello{Space: space.SmallDLRMConfig()})
	if err != nil {
		t.Fatal(err)
	}
	cc := s.ds.Config
	batch := datapipe.NewStream(datapipe.CTRConfig{NumTables: cc.NumTables, Vocab: cc.BaseVocab, NumDense: cc.NumDense}, 3).NextBatch(16)
	req := execReq{
		Step: 1, Assignment: s.ds.BaselineAssignment(), ToVersion: 1,
		NumExamples: batch.Dense.Rows, NumDense: batch.Dense.Cols,
		Dense: batch.Dense.Data, Labels: batch.Labels.Data, Sparse: batch.Sparse,
	}
	for _, p := range s.params {
		req.Full = append(req.Full, p.Value.Data)
	}
	for _, mode := range []byte{weightsFull, weightsNone} {
		req.WeightsMode = mode
		payload := encodeExec(newFrame(nil), &req)[headerLen:]
		s.bufs.rx = payload
		if err := s.handleExec(payload); err != nil {
			t.Fatal(err)
		}
		if kept := s.bufs.rx != nil; kept != (mode == weightsNone) {
			t.Errorf("weights mode %d: worker kept its receive buffer = %v", mode, kept)
		}
	}
	if s.req.Full != nil {
		t.Error("worker kept its views into the full sync")
	}
}

// TestBindRejectsMismatchedFleet: a 2-worker fleet cannot serve a
// 3-shard run.
func TestBindRejectsMismatchedFleet(t *testing.T) {
	f := startFleet(t, 2)
	tr, err := Dial(f.addrs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	cfg := testConfig(3)
	cfg.Transport = tr
	if _, err := testSearcher(t, 3).Search(cfg); err == nil {
		t.Fatal("search accepted a fleet smaller than the shard count")
	}
}

// TestDialFailsFastWhenWorkerAbsent: binding against a dead address must
// error out of Search, not hang.
func TestDialFailsFastWhenWorkerAbsent(t *testing.T) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := lis.Addr().String()
	lis.Close() // nothing listens here now
	tr, err := Dial([]string{addr, addr, addr}, Options{Timeout: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	cfg := testConfig(3)
	cfg.Transport = tr
	if _, err := testSearcher(t, 3).Search(cfg); err == nil {
		t.Fatal("search bound to a dead fleet")
	}
}

// TestHandshakeRejectsMismatchedModel: a worker that builds a different
// model than the coordinator must be refused at bind time, before any
// step runs.
func TestHandshakeRejectsMismatchedModel(t *testing.T) {
	// A fake worker that acks the handshake with the wrong param count.
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	go func() {
		conn, err := lis.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		_, reqID, _, err := readFrame(conn, nil)
		if err != nil {
			return
		}
		writeFrame(conn, frameHelloAck, reqID, encodeHelloAck(newFrame(nil), &helloAck{NumParams: 1}))
	}()
	tr, err := Dial([]string{lis.Addr().String()}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	cfg := testConfig(3)
	cfg.Shards = 1
	cfg.Transport = tr
	_, err = testSearcher(t, 3).Search(cfg)
	if err == nil {
		t.Fatal("search accepted a mismatched model")
	}
	if want := "mismatched model"; !strings.Contains(err.Error(), want) {
		t.Fatalf("error %q does not mention %q", err, want)
	}
}
