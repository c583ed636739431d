package shardrpc

import (
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"runtime"
	"slices"
	"sync"
	"time"

	"h2onas/internal/core"
	"h2onas/internal/datapipe"
	"h2onas/internal/nn"
	"h2onas/internal/space"
	"h2onas/internal/supernet"
	"h2onas/internal/tensor"
)

// Worker executes shard steps on behalf of a remote coordinator: it
// receives the model configuration in the handshake, builds a
// structurally identical super-network replica, and then answers one
// synchronous exec request at a time — apply the weight sync, run the
// forward/backward on the wire-delivered batch, return the exact loss
// and gradient bits. The computation consumes no worker-local
// randomness, so its results are a pure function of the request — the
// property the coordinator's bit-determinism rests on.
//
// GOMAXPROCS is the worker's core budget: a worker process serves one
// shard, so each replica's layers fan out across all of it
// (supernet.SetWorkers). Every layer's parallel path is bit-identical to
// its serial loop, so the budget moves no bit; run one worker per host
// and leave GOMAXPROCS at the host's core count.
//
// A worker serves coordinator sessions sequentially or concurrently (one
// super-network per connection) and drains gracefully: Drain lets the
// in-flight request complete and its response flush before connections
// close, so a politely stopped worker never corrupts a step.
type Worker struct {
	mu       sync.Mutex
	lis      net.Listener
	conns    map[net.Conn]struct{}
	draining bool

	wg sync.WaitGroup
}

// NewWorker returns an idle worker.
func NewWorker() *Worker {
	return &Worker{conns: make(map[net.Conn]struct{})}
}

// Serve accepts coordinator connections on lis until Drain (or a listener
// error). Each connection is one coordinator session.
func (w *Worker) Serve(lis net.Listener) error {
	w.mu.Lock()
	if w.draining {
		w.mu.Unlock()
		return errors.New("shardrpc: worker is draining")
	}
	w.lis = lis
	w.mu.Unlock()
	for {
		conn, err := lis.Accept()
		if err != nil {
			if w.isDraining() {
				w.wg.Wait()
				return nil
			}
			return err
		}
		w.track(conn)
		w.wg.Add(1)
		go func() {
			defer w.wg.Done()
			w.session(conn)
		}()
	}
}

// Drain stops accepting work: the listener closes, idle connections are
// unblocked, and in-flight requests run to completion (their responses
// are written before the connection closes). Safe to call more than once.
func (w *Worker) Drain() {
	w.mu.Lock()
	if w.draining {
		w.mu.Unlock()
		return
	}
	w.draining = true
	lis := w.lis
	conns := make([]net.Conn, 0, len(w.conns))
	for c := range w.conns {
		conns = append(conns, c)
	}
	w.mu.Unlock()
	if lis != nil {
		lis.Close()
	}
	// A past read deadline unblocks sessions parked in readFrame without
	// cutting a session that is mid-compute: its response write still
	// proceeds, and the session exits at its next read.
	for _, c := range conns {
		c.SetReadDeadline(time.Now())
	}
}

// Wait blocks until every session has finished.
func (w *Worker) Wait() { w.wg.Wait() }

func (w *Worker) isDraining() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.draining
}

func (w *Worker) track(conn net.Conn) {
	w.mu.Lock()
	w.conns[conn] = struct{}{}
	w.mu.Unlock()
}

func (w *Worker) untrack(conn net.Conn) {
	w.mu.Lock()
	delete(w.conns, conn)
	w.mu.Unlock()
}

// session speaks one coordinator connection: handshake, then a
// request/response loop until the peer disconnects or the worker drains.
func (w *Worker) session(conn net.Conn) {
	defer conn.Close()
	defer w.untrack(conn)
	s, err := w.handshake(conn)
	if err != nil {
		log.Printf("shardrpc: worker handshake with %s failed: %v", conn.RemoteAddr(), err)
		return
	}
	log.Printf("shardrpc: worker serving shard %d for %s (%d params)", s.shard, conn.RemoteAddr(), len(s.params))
	for {
		typ, reqID, payload, err := readFrame(conn, s.bufs.rx)
		if err != nil {
			if !errors.Is(err, io.EOF) && !w.isDraining() {
				log.Printf("shardrpc: worker session with %s ended: %v", conn.RemoteAddr(), err)
			}
			return
		}
		s.bufs.rx = payload
		if typ != frameExec {
			log.Printf("shardrpc: worker got unexpected frame type %d", typ)
			return
		}
		typ = frameExecResult
		if herr := s.handleExec(payload); herr != nil {
			typ = frameError
			s.bufs.tx = encodeError(newFrame(s.bufs.tx), herr.Error())
		}
		if err := writeFrame(conn, typ, reqID, s.bufs.tx); err != nil {
			return
		}
		if w.isDraining() {
			return
		}
	}
}

// workerSession is the per-connection model state. Everything below
// version is reused from one exec to the next: req views into bufs.rx,
// batch points at dense, labels and req's bags, and grads into the
// params' gradients.
type workerSession struct {
	shard   uint32
	ds      *space.DLRMSpace
	net     *supernet.Supernet
	params  []*nn.Param
	version uint64 // weight version currently loaded; 0 = uninitialized

	bufs          connBufs
	req           execView
	batch         datapipe.Batch
	dense, labels tensor.Matrix
	grads         []tensorPatch
}

func (w *Worker) handshake(conn net.Conn) (*workerSession, error) {
	typ, reqID, payload, err := readFrame(conn, nil)
	if err != nil {
		return nil, err
	}
	if typ != frameHello {
		return nil, fmt.Errorf("expected hello frame, got type %d", typ)
	}
	h, err := decodeHello(payload)
	if err != nil {
		return nil, err
	}
	s, err := newSession(h)
	if err != nil {
		werr := writeFrame(conn, frameError, reqID, encodeError(newFrame(nil), err.Error()))
		if werr != nil {
			return nil, werr
		}
		return nil, err
	}
	s.bufs.tx = encodeHelloAck(newFrame(nil), &helloAck{NumParams: uint32(len(s.params))})
	if err := writeFrame(conn, frameHelloAck, reqID, s.bufs.tx); err != nil {
		return nil, err
	}
	return s, nil
}

func newSession(h *hello) (s *workerSession, err error) {
	// Space/super-network construction panics on malformed configs; a
	// remote peer's bad handshake must become an error frame, not a dead
	// worker.
	defer func() {
		if r := recover(); r != nil {
			s, err = nil, fmt.Errorf("building model from handshake: %v", r)
		}
	}()
	ds := space.NewDLRMSpace(h.Space)
	// Weights are owned by the coordinator and arrive via sync, so the
	// replica is built weightless (ZeroRNG) like the coordinator's own
	// ghost replicas — but unlike those, it does not share the master's
	// storage, so the shape-only placeholders must be given real backing
	// for the first full sync to land in.
	net := supernet.NewWithOptions(ds, tensor.ZeroRNG(), h.Options)
	for _, p := range net.Params() {
		if len(p.Value.Data) == 0 {
			p.Value = tensor.New(p.Value.Rows, p.Value.Cols)
		}
	}
	net.SetArena(tensor.NewArena())
	// One shard per worker process: the replica gets the host's whole
	// core budget (see Worker).
	net.SetWorkers(runtime.GOMAXPROCS(0))
	return &workerSession{
		shard:  h.Shard,
		ds:     ds,
		net:    net,
		params: net.Params(),
	}, nil
}

// handleExec runs one shard step and encodes its exec result into
// s.bufs.tx.
func (s *workerSession) handleExec(payload []byte) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("shard step panicked: %v", r)
		}
	}()
	req := &s.req
	if err := decodeExec(payload, req); err != nil {
		return err
	}
	if err := s.applyWeights(req); err != nil {
		return err
	}
	if req.WeightsMode == weightsFull {
		// See connBufs. The step's other views into the frame hold it
		// only until the next decode replaces them.
		s.bufs.rx, req.Full = nil, nil
	}
	if err := s.ds.Space.Validate(req.Assignment); err != nil {
		return err
	}
	batch, err := s.buildBatch(req)
	if err != nil {
		return err
	}

	// The shard step the in-process pool runs: fresh data feeds
	// architecture learning first, then weight training.
	loss := core.ShardStep(s.net, req.Assignment, batch)

	res := execResult{Step: req.Step, Version: s.version, Loss: loss, Grads: s.dirtyGrads()}
	s.bufs.tx = encodeExecResult(newFrame(s.bufs.tx), &res)
	// Encoding copied every gradient bit out; restore the clean-grad
	// invariant for the next step.
	for _, p := range s.params {
		p.ZeroGrad()
	}
	return nil
}

// applyWeights brings the session's weights to the request's version.
// The whole sync is checked before the first value is copied, so a
// rejected one leaves the weights as they were.
func (s *workerSession) applyWeights(req *execView) error {
	switch req.WeightsMode {
	case weightsNone:
		if s.version != req.ToVersion {
			return fmt.Errorf("no weight sync but worker holds version %d, coordinator expects %d", s.version, req.ToVersion)
		}
		return nil
	case weightsFull:
		if len(req.Full) != len(s.params) {
			return fmt.Errorf("full sync has %d parameter tensors, super-network has %d", len(req.Full), len(s.params))
		}
		for i, p := range s.params {
			if req.Full[i].Len() != len(p.Value.Data) {
				return fmt.Errorf("full sync has %d values for parameter %d (%s), super-network has %d", req.Full[i].Len(), i, p.Name, len(p.Value.Data))
			}
		}
		for i, p := range s.params {
			req.Full[i].CopyTo(p.Value.Data)
		}
	case weightsDelta:
		if s.version != req.FromVersion {
			return fmt.Errorf("delta applies on version %d, worker holds %d", req.FromVersion, s.version)
		}
		if err := checkPatches(s.params, req.Delta, "delta"); err != nil {
			return err
		}
		for _, pt := range req.Delta {
			copyPatch(s.params[pt.Param].Value, pt)
		}
	default:
		return fmt.Errorf("unknown weights mode %d", req.WeightsMode)
	}
	s.version = req.ToVersion
	return nil
}

// buildBatch reconstructs the coordinator's batch bit-for-bit in the
// session's reused storage; its bags are the request's.
func (s *workerSession) buildBatch(req *execView) (*datapipe.Batch, error) {
	n := req.NumExamples
	cfg := s.ds.Config
	if n <= 0 || req.NumDense != cfg.NumDense {
		return nil, fmt.Errorf("batch shape %d×%d does not fit model with %d dense features", n, req.NumDense, cfg.NumDense)
	}
	if req.Dense.Len() != n*cfg.NumDense || req.Labels.Len() != n {
		return nil, fmt.Errorf("batch payload sizes dense=%d labels=%d for %d examples", req.Dense.Len(), req.Labels.Len(), n)
	}
	if len(req.Sparse) != cfg.NumTables {
		return nil, fmt.Errorf("batch has %d sparse tables, model has %d", len(req.Sparse), cfg.NumTables)
	}
	for t, table := range req.Sparse {
		if len(table) != n {
			return nil, fmt.Errorf("sparse table %d has %d examples, batch has %d", t, len(table), n)
		}
	}
	s.dense = resize(s.dense, n, cfg.NumDense)
	s.labels = resize(s.labels, n, 1)
	req.Dense.CopyTo(s.dense.Data)
	req.Labels.CopyTo(s.labels.Data)
	s.batch = datapipe.Batch{Dense: &s.dense, Sparse: req.Sparse, Labels: &s.labels}
	return &s.batch, nil
}

// resize reshapes m to rows×cols, reusing its storage when large enough.
func resize(m tensor.Matrix, rows, cols int) tensor.Matrix {
	return tensor.Matrix{Rows: rows, Cols: cols, Data: slices.Grow(m.Data[:0], rows*cols)[:rows*cols]}
}

// dirtyGrads names the replica's dirty gradients in param order, for the
// result encoder to read in place. Row-tracked params ship only their
// dirty rows, in first-write order — the order the coordinator replays
// into its ghost replica so the fixed-order spine reduce sees exactly the
// state an in-process shard would have produced — and their packed slots
// are already those rows' values in that order.
func (s *workerSession) dirtyGrads() []tensorPatch {
	s.grads = s.grads[:0]
	for i, p := range s.params {
		if !p.Dirty {
			continue
		}
		if p.RowSparse && len(p.DirtyRows) > 0 {
			s.grads = append(s.grads, tensorPatch{Param: i, Rows: p.DirtyRows, Values: p.Grad.Data[:len(p.DirtyRows)*p.Grad.Cols]})
			continue
		}
		if p.RowSparse {
			// Dirty with no recorded rows: the gradient is exactly zero by
			// the row invariant — nothing to ship.
			continue
		}
		s.grads = append(s.grads, tensorPatch{Param: i, Values: p.Grad.Data})
	}
	return s.grads
}
