package shardrpc

import (
	"io"
	"net"
	"reflect"
	"sync/atomic"
	"testing"

	"h2onas/internal/metrics"
	"h2onas/internal/nn"
	"h2onas/internal/space"
	"h2onas/internal/supernet"
	"h2onas/internal/tensor"
)

// withBadRow appends to a result a patch whose only row is out of range
// for its (row-sparse) param; every patch before it stays valid.
func withBadRow(t testing.TB, s *workerSession, res *execResult) {
	t.Helper()
	for i, p := range s.params {
		if p.RowSparse {
			res.Grads = append(res.Grads, tensorPatch{Param: i, Rows: []int32{int32(p.Value.Rows)}, Values: make([]float64, p.Value.Cols)})
			return
		}
	}
	t.Fatal("model has no row-sparse param")
}

// requireClean fails unless rep holds no gradient at all: no Dirty param,
// no marked row, every value zero.
func requireClean(t *testing.T, rep *supernet.Supernet) {
	t.Helper()
	for i, p := range rep.Params() {
		if p.Dirty || len(p.DirtyRows) > 0 {
			t.Fatalf("param %d left dirty (%d marked rows)", i, len(p.DirtyRows))
		}
		for _, g := range p.Grad.Data {
			if g != 0 {
				t.Fatalf("param %d left a nonzero gradient", i)
			}
		}
	}
}

// TestRejectedGradientLeavesReplicaClean: a result whose last patch names
// an out-of-range row is refused before its first patch is copied, so
// the ghost replica the spine reduces stays exactly as clean as before;
// the same result without the bad patch then lands in full.
func TestRejectedGradientLeavesReplicaClean(t *testing.T) {
	s, _ := shardStep(t)
	good := execResult{Step: 1, Version: 1, Grads: s.dirtyGrads()}
	bad := good
	bad.Grads = append([]tensorPatch(nil), good.Grads...)
	withBadRow(t, s, &bad)

	ghost := supernet.NewWithOptions(s.ds, tensor.NewRNG(1), supernet.Options{})
	var v resultView
	if err := decodeExecResult(encodeExecResult(nil, &bad), &v); err != nil {
		t.Fatal(err)
	}
	if err := applyGrads(ghost, v.Grads); err == nil {
		t.Fatal("a gradient for an out-of-range row was applied")
	}
	requireClean(t, ghost)

	if err := decodeExecResult(encodeExecResult(nil, &good), &v); err != nil {
		t.Fatal(err)
	}
	if err := applyGrads(ghost, v.Grads); err != nil {
		t.Fatal(err)
	}
	for i, p := range ghost.Params() {
		want := s.params[i]
		if p.Dirty != (want.Dirty && (!want.RowSparse || len(want.DirtyRows) > 0)) || !reflect.DeepEqual(p.DirtyRows, want.DirtyRows) || !reflect.DeepEqual(liveGrad(p), liveGrad(want)) {
			t.Fatalf("param %d: replica does not hold the worker's gradient", i)
		}
	}
}

// liveGrad is the gradient storage in use: a row-tracked param's packed
// slots (slot k holds row DirtyRows[k]), a dense param's whole gradient.
func liveGrad(p *nn.Param) []float64 {
	if p.RowSparse {
		return p.Grad.Data[:len(p.DirtyRows)*p.Grad.Cols]
	}
	return p.Grad.Data
}

// TestRepeatedGradientRowLeavesReplicaClean: a row patch that names a row
// twice would fold two packed slots into one; the result is refused, and
// whatever its earlier patches had landed is cleared again.
func TestRepeatedGradientRowLeavesReplicaClean(t *testing.T) {
	s, _ := shardStep(t)
	res := execResult{Step: 1, Version: 1, Grads: s.dirtyGrads()}
	for i, p := range s.params {
		if p.RowSparse {
			row := make([]float64, p.Value.Cols)
			res.Grads = append(res.Grads, tensorPatch{Param: i, Rows: []int32{0, 0}, Values: append(row, row...)})
			break
		}
	}
	ghost := supernet.NewWithOptions(s.ds, tensor.NewRNG(1), supernet.Options{})
	var v resultView
	if err := decodeExecResult(encodeExecResult(nil, &res), &v); err != nil {
		t.Fatal(err)
	}
	if err := applyGrads(ghost, v.Grads); err == nil {
		t.Fatal("a gradient repeating a row was applied")
	}
	requireClean(t, ghost)
}

// corruptingProxy relays one worker's connections unchanged, except that
// the first exec result it relays gains a trailing patch for an
// out-of-range row.
func corruptingProxy(t *testing.T, upstream string) string {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { lis.Close() })
	s, err := newSession(&hello{Space: space.SmallDLRMConfig()}) // for its param shapes
	if err != nil {
		t.Fatal(err)
	}
	var corrupted atomic.Bool
	go func() {
		for {
			down, err := lis.Accept()
			if err != nil {
				return
			}
			up, err := net.Dial("tcp", upstream)
			if err != nil {
				down.Close()
				return
			}
			go func() {
				io.Copy(up, down)
				up.Close()
			}()
			go func() {
				defer down.Close()
				var buf []byte
				for {
					typ, id, payload, err := readFrame(up, buf)
					if err != nil {
						return
					}
					buf = payload
					frame := append(newFrame(nil), payload...)
					if typ == frameExecResult && corrupted.CompareAndSwap(false, true) {
						var v resultView
						if err := decodeExecResult(payload, &v); err != nil {
							return
						}
						res := resultOf(&v)
						withBadRow(t, s, res)
						frame = encodeExecResult(newFrame(nil), res)
					}
					if writeFrame(down, typ, id, frame) != nil {
						return
					}
				}
			}()
		}
	}()
	return lis.Addr().String()
}

// TestRejectedResultRetriesToInProcessTrajectory: a worker answers one
// exec with a result the coordinator must refuse. The attempt fails
// without touching the ghost replica, the retry redials and full-syncs,
// and the run stays bit-identical to the in-process control.
func TestRejectedResultRetriesToInProcessTrajectory(t *testing.T) {
	golden, err := testSearcher(t, 17).Search(testConfig(17))
	if err != nil {
		t.Fatal(err)
	}
	f := startFleet(t, 3)
	addrs := append([]string(nil), f.addrs...)
	addrs[1] = corruptingProxy(t, f.addrs[1])
	tr, err := Dial(addrs, Options{Seed: 17, Clock: &testClock{}})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	reg := metrics.New()
	cfg := testConfig(17)
	cfg.Transport = tr
	cfg.Metrics = reg
	remote, err := testSearcher(t, 17).Search(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("shardrpc_rpc_failures_total").Value(); got != 1 {
		t.Fatalf("rpc failures = %d, want the one rejected result", got)
	}
	for i, d := range remote.ShardFirstDrop {
		if d != -1 {
			t.Fatalf("shard %d dropped at step %d; the retry should absorb the bad result", i, d)
		}
	}
	requireSameBest(t, golden, remote)
	requireSameHistory(t, golden.History, remote.History)
	if golden.FinalQuality != remote.FinalQuality {
		t.Fatal("FinalQuality drifted across a rejected result")
	}
}

// TestConnBuffersCarryFramesOfEverySize pushes exec frames that grow and
// shrink through one connection's buffers on both ends: each must decode,
// through one reused view, to exactly the message sent.
func TestConnBuffersCarryFramesOfEverySize(t *testing.T) {
	sent := []*execReq{goldenExec(weightsNone), goldenExec(weightsFull), goldenExec(weightsDelta), goldenExec(weightsNone)}
	big := goldenExec(weightsFull)
	big.Full = append(big.Full, make([]float64, 4096))
	sent[1] = big

	client, server := net.Pipe()
	defer client.Close()
	errc := make(chan error, 1)
	go func() {
		var tx connBufs
		for i, r := range sent {
			tx.tx = encodeExec(newFrame(tx.tx), r)
			if err := writeFrame(client, frameExec, uint64(i), tx.tx); err != nil {
				errc <- err
				return
			}
		}
		errc <- nil
	}()
	var rx connBufs
	var v execView
	for i, want := range sent {
		typ, id, payload, err := readFrame(server, rx.rx)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if i > 1 && &payload[0] != &rx.rx[0] {
			t.Fatalf("frame %d did not reuse the buffer the largest frame grew", i)
		}
		rx.rx = payload
		if typ != frameExec || id != uint64(i) {
			t.Fatalf("frame %d read as type %d id %d", i, typ, id)
		}
		if err := decodeExec(payload, &v); err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if got := reqOf(&v); !reflect.DeepEqual(got, want) {
			t.Fatalf("frame %d decoded as\n%+v\nsent\n%+v", i, got, want)
		}
	}
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
}

// TestRejectedDeltaLeavesWeightsUntouched: the worker side of the same
// rule — a weight delta whose last patch names an out-of-range row is
// refused before its first patch is copied, and the session keeps its
// weights and its version.
func TestRejectedDeltaLeavesWeightsUntouched(t *testing.T) {
	s, _ := shardStep(t)
	s.version = 1
	before := make([][]float64, len(s.params))
	for i, p := range s.params {
		before[i] = append([]float64(nil), p.Value.Data...)
	}
	res := execResult{Grads: s.dirtyGrads()} // patches shaped like a real delta
	withBadRow(t, s, &res)
	req := goldenExec(weightsDelta)
	req.FromVersion, req.ToVersion, req.Delta = 1, 2, res.Grads
	var v execView
	if err := decodeExec(encodeExec(nil, req), &v); err != nil {
		t.Fatal(err)
	}
	if err := s.applyWeights(&v); err == nil {
		t.Fatal("a delta for an out-of-range row was applied")
	}
	if s.version != 1 {
		t.Fatalf("worker version moved to %d on a rejected delta", s.version)
	}
	for i, p := range s.params {
		if !reflect.DeepEqual(p.Value.Data, before[i]) {
			t.Fatalf("param %d changed under a rejected delta", i)
		}
	}
}
