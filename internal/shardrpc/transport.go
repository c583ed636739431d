package shardrpc

import (
	"errors"
	"fmt"
	"log"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"h2onas/internal/checkpoint"
	"h2onas/internal/core"
	"h2onas/internal/datapipe"
	"h2onas/internal/metrics"
	"h2onas/internal/nn"
	"h2onas/internal/space"
	"h2onas/internal/supernet"
	"h2onas/internal/tensor"
)

// Options configures the coordinator side of the TCP transport.
type Options struct {
	// Timeout is the per-call completion budget (dial, handshake, one
	// exec round trip); zero or negative takes the 10 s default. Retries
	// and the circuit breaker are fixed (see policy.go).
	Timeout time.Duration
	// Clock drives breaker cooldowns and backoff sleeps; nil is wall time.
	Clock checkpoint.Clock
	// Seed seeds the retry-backoff jitter.
	Seed uint64
}

// rpcWorker is the coordinator's view of one remote shard worker.
type rpcWorker struct {
	shard int
	addr  string
	conn  net.Conn
	br    *Breaker
	// acked is the weight version the worker last confirmed holding;
	// 0 after (re)connect, forcing a full sync.
	acked uint64

	// bufs and res are reused every step; res views into bufs.rx.
	bufs connBufs
	res  resultView
}

// Transport drives remote shard workers over length-prefixed TCP frames,
// implementing core.ShardTransport. Each step it broadcasts the candidate
// assignment, the coordinator-drawn batch and a weight sync (none, a
// touched-rows delta, or a full state for fresh connections) to every
// worker in parallel, then copies the returned gradient bits into the
// shard's ghost replica in wire order — so the coordinator's fixed-order
// reduce consumes exactly the state an in-process shard would have
// produced, and the trajectory stays bit-identical to a single-process
// run with the same surviving shard set.
//
// Failures degrade the step, not the run: a call that times out or hits a
// dead connection is retried with jittered backoff, a worker that keeps
// failing trips its circuit breaker and is skipped (reported !Alive)
// until the cooldown expires, and a worker whose connection broke is
// redialed with a fresh handshake — which resets its acked version and
// triggers a full weight sync.
type Transport struct {
	timeout time.Duration
	clock   checkpoint.Clock

	workers []*rpcWorker

	master   *supernet.Supernet
	replicas []*supernet.Supernet
	params   []*nn.Param

	backoff *Backoff
	reqID   atomic.Uint64

	// version is the master's current weight version; delta (valid when
	// hasDelta) names exactly the params/rows that changed from deltaFrom
	// to version. Mutated only between RunStep calls.
	version   uint64
	deltaFrom uint64
	hasDelta  bool
	delta     []tensorPatch

	membership string
	closed     bool

	ins instruments
}

type instruments struct {
	roundtrip  *metrics.Histogram
	broadcast  *metrics.Counter
	collect    *metrics.Counter
	fullSyncs  *metrics.Counter
	deltaSyncs *metrics.Counter
	failures   *metrics.Counter
	retries    *metrics.Counter
	redials    *metrics.Counter
	dropped    *metrics.Counter
	breakers   *metrics.Gauge
}

// Dial returns a transport that connects out to one listening worker per
// shard; addrs[i] serves shard i, and len(addrs) must equal the run's
// shard count. Connections and handshakes happen at Bind, and broken
// connections are redialed between steps, so a restarted worker rejoins
// the fleet with a full weight sync.
func Dial(addrs []string, opts Options) (*Transport, error) {
	if len(addrs) == 0 {
		return nil, errors.New("shardrpc: no worker addresses")
	}
	timeout := opts.Timeout
	if timeout <= 0 {
		timeout = defaultTimeout
	}
	clock := opts.Clock
	if clock == nil {
		clock = checkpoint.RealClock()
	}
	t := &Transport{
		timeout: timeout,
		clock:   clock,
		backoff: NewBackoff(backoffBase, backoffMax, opts.Seed),
	}
	for i, a := range addrs {
		if a == "" {
			return nil, fmt.Errorf("shardrpc: empty address for shard %d", i)
		}
		t.workers = append(t.workers, &rpcWorker{
			shard: i,
			addr:  a,
			br:    NewBreaker(breakerThreshold, breakerCooldown, t.clock),
		})
	}
	t.membership = "tcp[" + strings.Join(addrs, ",") + "]"
	return t, nil
}

func (t *Transport) Bind(b core.ShardBinding) error {
	t.master = b.Master
	t.replicas = b.Replicas
	t.params = b.Master.Params()
	t.bindInstruments(b.Metrics)
	if shards := len(b.Replicas); len(t.workers) != shards {
		return fmt.Errorf("shardrpc: %d worker addresses for %d shards", len(t.workers), shards)
	}
	for _, w := range t.workers {
		if err := t.connect(w); err != nil {
			return fmt.Errorf("shardrpc: shard %d handshake: %w", w.shard, err)
		}
	}
	t.version = 1
	return nil
}

func (t *Transport) bindInstruments(r *metrics.Registry) {
	t.ins = instruments{
		roundtrip:  r.Histogram("shardrpc_roundtrip_seconds"),
		broadcast:  r.Counter("shardrpc_broadcast_bytes_total"),
		collect:    r.Counter("shardrpc_collect_bytes_total"),
		fullSyncs:  r.Counter("shardrpc_full_syncs_total"),
		deltaSyncs: r.Counter("shardrpc_delta_syncs_total"),
		failures:   r.Counter("shardrpc_rpc_failures_total"),
		retries:    r.Counter("shardrpc_rpc_retries_total"),
		redials:    r.Counter("shardrpc_redials_total"),
		dropped:    r.Counter("shardrpc_shards_dropped_total"),
		breakers:   r.Gauge("shardrpc_breakers_open"),
	}
}

// connect establishes (or re-establishes) a worker's connection and runs
// the hello handshake. On success the worker's acked version is reset, so
// its next exec carries a full weight sync.
func (t *Transport) connect(w *rpcWorker) error {
	if w.conn == nil {
		conn, err := net.DialTimeout("tcp", w.addr, t.timeout)
		if err != nil {
			return err
		}
		w.conn = conn
	}
	id := t.reqID.Add(1)
	w.conn.SetDeadline(time.Now().Add(t.timeout))
	h := &hello{Shard: uint32(w.shard), Space: t.master.DS.Config, Options: t.master.Options()}
	w.bufs.tx = encodeHello(newFrame(w.bufs.tx), h)
	if err := writeFrame(w.conn, frameHello, id, w.bufs.tx); err != nil {
		t.dropConn(w)
		return err
	}
	typ, gotID, payload, err := readFrame(w.conn, w.bufs.rx)
	if err != nil {
		t.dropConn(w)
		return err
	}
	w.bufs.rx = payload
	if gotID != id {
		t.dropConn(w)
		return fmt.Errorf("handshake response for request %d, expected %d", gotID, id)
	}
	if typ == frameError {
		msg, _ := decodeError(payload)
		t.dropConn(w)
		return fmt.Errorf("worker rejected handshake: %s", msg)
	}
	if typ != frameHelloAck {
		t.dropConn(w)
		return fmt.Errorf("unexpected handshake frame type %d", typ)
	}
	ack, err := decodeHelloAck(payload)
	if err != nil {
		t.dropConn(w)
		return err
	}
	if int(ack.NumParams) != len(t.params) {
		t.dropConn(w)
		return fmt.Errorf("worker built %d params, coordinator has %d — mismatched model", ack.NumParams, len(t.params))
	}
	w.acked = 0
	return nil
}

func (t *Transport) dropConn(w *rpcWorker) {
	if w.conn != nil {
		w.conn.Close()
		w.conn = nil
	}
}

func (t *Transport) RunStep(step int, assignments []space.Assignment, batches []*datapipe.Batch, outcomes []core.ShardOutcome) {
	// The delta is shared read-only by every worker goroutine that syncs
	// from version-1.
	var wg sync.WaitGroup
	for i := range t.workers {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			t.runShard(step, t.workers[i], assignments[i], batches[i], &outcomes[i])
		}(i)
	}
	wg.Wait()
	open := 0
	for _, w := range t.workers {
		if w.br.State() != BreakerClosed {
			open++
		}
	}
	t.ins.breakers.Set(float64(open))
}

// runShard drives one shard through the step: retry with jittered backoff
// up to maxAttempts, redial dead connections, and on exhaustion
// leave the outcome !Alive — the shard is dropped from this step's reduce.
func (t *Transport) runShard(step int, w *rpcWorker, a space.Assignment, b *datapipe.Batch, out *core.ShardOutcome) {
	if !w.br.Allow() {
		t.ins.dropped.Inc()
		return
	}
	for attempt := 0; attempt < maxAttempts; attempt++ {
		if attempt > 0 {
			t.ins.retries.Inc()
			t.clock.Sleep(t.backoff.Delay(attempt - 1))
		}
		if w.conn == nil {
			t.ins.redials.Inc()
			if err := t.connect(w); err != nil {
				t.ins.failures.Inc()
				w.br.Failure()
				continue
			}
		}
		res, fatal, err := t.call(w, step, a, b)
		if err != nil {
			log.Printf("shardrpc: shard %d step %d attempt %d: %v", w.shard, step, attempt, err)
			t.ins.failures.Inc()
			w.br.Failure()
			if fatal {
				t.dropConn(w)
			}
			continue
		}
		if err := applyGrads(t.replicas[w.shard], res.Grads); err != nil {
			// Nothing was applied; treat the attempt as failed and force a
			// resync.
			log.Printf("shardrpc: shard %d step %d attempt %d: %v", w.shard, step, attempt, err)
			t.ins.failures.Inc()
			w.br.Failure()
			t.dropConn(w)
			continue
		}
		w.acked = res.Version
		w.br.Success()
		out.Alive = true
		out.Quality = core.QualityFromLoss(res.Loss)
		return
	}
	t.ins.dropped.Inc()
}

// call performs one exec round trip. fatal reports whether the connection
// is desynchronized and must be dropped (I/O or protocol errors); a clean
// worker-side error frame leaves the connection usable.
func (t *Transport) call(w *rpcWorker, step int, a space.Assignment, b *datapipe.Batch) (res *resultView, fatal bool, err error) {
	req := execReq{
		Step:        uint64(step),
		Assignment:  a,
		NumExamples: b.Dense.Rows,
		NumDense:    b.Dense.Cols,
		Dense:       b.Dense.Data,
		Labels:      b.Labels.Data,
		Sparse:      b.Sparse,
	}
	switch {
	case w.acked == t.version:
		req.WeightsMode = weightsNone
		req.ToVersion = t.version
	case w.acked == t.deltaFrom && t.hasDelta:
		req.WeightsMode = weightsDelta
		req.FromVersion = t.deltaFrom
		req.ToVersion = t.version
		req.Delta = t.delta
		t.ins.deltaSyncs.Inc()
	default:
		req.WeightsMode = weightsFull
		req.ToVersion = t.version
		req.Full = make([][]float64, len(t.params))
		for i, p := range t.params {
			req.Full[i] = p.Value.Data
		}
		t.ins.fullSyncs.Inc()
	}
	w.bufs.tx = encodeExec(newFrame(w.bufs.tx), &req)
	id := t.reqID.Add(1)
	w.conn.SetDeadline(time.Now().Add(t.timeout))
	span := t.ins.roundtrip.Start()
	defer span.End()
	if err := writeFrame(w.conn, frameExec, id, w.bufs.tx); err != nil {
		return nil, true, err
	}
	t.ins.broadcast.Add(int64(len(w.bufs.tx)))
	typ, gotID, resp, err := readFrame(w.conn, w.bufs.rx)
	if err != nil {
		return nil, true, err
	}
	w.bufs.rx = resp
	t.ins.collect.Add(int64(headerLen + len(resp)))
	if gotID != id {
		return nil, true, fmt.Errorf("response for request %d, expected %d", gotID, id)
	}
	switch typ {
	case frameError:
		msg, derr := decodeError(resp)
		if derr != nil {
			return nil, true, derr
		}
		return nil, false, fmt.Errorf("worker error: %s", msg)
	case frameExecResult:
		r := &w.res
		if derr := decodeExecResult(resp, r); derr != nil {
			return nil, true, derr
		}
		if r.Step != uint64(step) {
			return nil, true, fmt.Errorf("result for step %d, expected %d", r.Step, step)
		}
		return r, false, nil
	default:
		return nil, true, fmt.Errorf("unexpected frame type %d", typ)
	}
}

// applyGrads replays a shard's wire gradients into its ghost replica so
// the spine reduce sees exactly the state an in-process Backward would
// have left: row patches are copied and marked in first-write order, and
// a dense gradient landing on a row-sparse param marks every row (the
// replica's row bookkeeping would otherwise hide it from the tracked
// reduce path). Every patch is checked before the first is copied, so a
// rejected result leaves the replica clean: no stale rows reach a retry's
// reduce, or the next step's.
func applyGrads(rep *supernet.Supernet, patches []patchView) error {
	params := rep.Params()
	if err := checkPatches(params, patches, "gradient"); err != nil {
		return err
	}
	for _, pt := range patches {
		p := params[pt.Param]
		copyPatch(p.Grad, pt)
		p.Dirty = true
		switch {
		case !pt.Dense:
			for k := 0; k < pt.Rows.Len(); k++ {
				p.MarkRow(int(pt.Rows.At(k)))
			}
		case p.RowSparse:
			for r := 0; r < p.Grad.Rows; r++ {
				p.MarkRow(r)
			}
		}
	}
	return nil
}

// checkPatches validates a decoded delta or gradient against the params'
// shapes: every index, value count and row in range.
func checkPatches(params []*nn.Param, patches []patchView, what string) error {
	for _, pt := range patches {
		if pt.Param < 0 || pt.Param >= len(params) {
			return fmt.Errorf("%s for param %d, model has %d", what, pt.Param, len(params))
		}
		rows, cols := params[pt.Param].Value.Rows, params[pt.Param].Value.Cols
		if pt.Dense {
			if pt.Values.Len() != rows*cols {
				return fmt.Errorf("dense %s for param %d has %d values, tensor has %d", what, pt.Param, pt.Values.Len(), rows*cols)
			}
			continue
		}
		if pt.Values.Len() != pt.Rows.Len()*cols {
			return fmt.Errorf("row %s for param %d has %d values for %d rows of %d cols", what, pt.Param, pt.Values.Len(), pt.Rows.Len(), cols)
		}
		for k := 0; k < pt.Rows.Len(); k++ {
			if r := pt.Rows.At(k); r < 0 || int(r) >= rows {
				return fmt.Errorf("row %s for param %d touches row %d of %d", what, pt.Param, r, rows)
			}
		}
	}
	return nil
}

// copyPatch decodes a checked patch into m, the param's value or
// gradient storage: each float is copied once, from the frame to where
// it is used.
func copyPatch(m *tensor.Matrix, pt patchView) {
	if pt.Dense {
		pt.Values.CopyTo(m.Data)
		return
	}
	cols := m.Cols
	for k := 0; k < pt.Rows.Len(); k++ {
		r := int(pt.Rows.At(k))
		pt.Values.Slice(k*cols, (k+1)*cols).CopyTo(m.Data[r*cols : (r+1)*cols])
	}
}

func (t *Transport) WantsWeightSync() bool { return true }

// PushWeights records the step's touched params as the delta from the
// previous version. Nothing is copied: the patches name the spine's
// touched rows and the master's storage, and the exec encoder reads both
// where they lie. Neither changes before the next ClipStep, which cannot
// start until the next RunStep has returned.
func (t *Transport) PushWeights(touched []nn.ParamTouch) error {
	t.deltaFrom = t.version
	t.version++
	t.hasDelta = true
	t.delta = t.delta[:0]
	for _, tc := range touched {
		v := t.params[tc.Index].Value
		p := tensorPatch{Param: tc.Index, Values: v.Data}
		if tc.Rows != nil {
			p.Rows, p.Cols = tc.Rows, v.Cols
		}
		t.delta = append(t.delta, p)
	}
	return nil
}

func (t *Transport) Membership() string { return t.membership }

func (t *Transport) Close() error {
	if t.closed {
		return nil
	}
	t.closed = true
	for _, w := range t.workers {
		t.dropConn(w)
	}
	return nil
}
