package jobs

import (
	"errors"
	"fmt"
	"io"
	"sync"

	"h2onas/internal/checkpoint"
	"h2onas/internal/metrics"
)

// Service errors. The HTTP layer maps them onto status codes
// (429 + Retry-After for quota/backpressure, 503 for draining, 404 for
// unknown or foreign jobs).
var (
	// ErrQuota reports that the tenant already has its quota of queued
	// plus running jobs.
	ErrQuota = errors.New("jobs: tenant quota exceeded")
	// ErrBusy reports that the global queue is full.
	ErrBusy = errors.New("jobs: queue full")
	// ErrDraining reports that the service is shutting down.
	ErrDraining = errors.New("jobs: service draining")
	// ErrNotFound reports an unknown job — or a job belonging to another
	// tenant, which callers must not be able to distinguish.
	ErrNotFound = errors.New("jobs: no such job")
)

// Options tunes the service. The zero value is usable: every field has a
// default applied by Open.
type Options struct {
	// Workers is the number of jobs run concurrently (default 2).
	Workers int
	// TenantQuota caps one tenant's queued plus running jobs (default 8).
	TenantQuota int
	// MaxQueue bounds the total queued jobs across tenants (default 64).
	MaxQueue int

	// CheckpointEvery is the step interval of each job's periodic search
	// snapshots (default 25).
	CheckpointEvery int

	// FS and Clock inject the filesystem and time (nil = real ones).
	FS    checkpoint.FS
	Clock checkpoint.Clock
	// Metrics receives the jobs_* instruments (nil = no-op).
	Metrics *metrics.Registry
	// Logf logs lifecycle events and corruption warnings (nil = silent).
	Logf func(format string, args ...any)
}

func (o Options) withDefaults() Options {
	if o.Workers <= 0 {
		o.Workers = 2
	}
	if o.TenantQuota <= 0 {
		o.TenantQuota = 8
	}
	if o.MaxQueue <= 0 {
		o.MaxQueue = 64
	}
	if o.CheckpointEvery <= 0 {
		o.CheckpointEvery = 25
	}
	if o.Clock == nil {
		o.Clock = checkpoint.RealClock()
	}
	if o.Logf == nil {
		o.Logf = func(string, ...any) {}
	}
	return o
}

// instruments bundles the jobs_* metrics; all nil-safe.
type instruments struct {
	submitted  *metrics.Counter // jobs_submitted_total
	done       *metrics.Counter // jobs_done_total
	failed     *metrics.Counter // jobs_failed_total
	cancelled  *metrics.Counter // jobs_cancelled_total
	resumed    *metrics.Counter // jobs_resumed_total
	parked     *metrics.Counter // jobs_parked_total
	shed       *metrics.Counter // jobs_shed_total
	queueDepth *metrics.Gauge   // jobs_queue_depth
	running    *metrics.Gauge   // jobs_running
	reg        *metrics.Registry
}

func newInstruments(r *metrics.Registry) instruments {
	return instruments{
		submitted:  r.Counter("jobs_submitted_total"),
		done:       r.Counter("jobs_done_total"),
		failed:     r.Counter("jobs_failed_total"),
		cancelled:  r.Counter("jobs_cancelled_total"),
		resumed:    r.Counter("jobs_resumed_total"),
		parked:     r.Counter("jobs_parked_total"),
		shed:       r.Counter("jobs_shed_total"),
		queueDepth: r.Gauge("jobs_queue_depth"),
		running:    r.Gauge("jobs_running"),
		reg:        r,
	}
}

// tenantDepth is the per-tenant queue-depth gauge. Tenant names are
// validated at admission, so the metric name is well-formed.
func (ins instruments) tenantDepth(tenant string) *metrics.Gauge {
	return ins.reg.Gauge("jobs_queue_depth_tenant_" + tenant)
}

// Stop modes: why a running job's stop channel was closed. The runner
// reads the mode after core.Search returns ErrStopped — the close
// happens-before that observation — and turns it into the journal
// transition.
const (
	modeCancel = iota + 1 // tenant cancellation → cancelled
	modePark              // graceful drain → back to queued, resume later
	modeCrash             // test-only simulated process death → no journal write
)

// runningJob is the in-memory handle of one executing job.
type runningJob struct {
	tenant string
	stop   chan struct{}
	once   sync.Once
	mode   int

	// pmu guards the live progress snapshot below.
	pmu        sync.Mutex
	step       int
	meanReward float64
	bestReward float64
	tail       []float64 // last progressTail mean rewards
	cancelReq  bool
}

const progressTail = 32

func (rj *runningJob) signal(mode int) {
	rj.once.Do(func() {
		rj.mode = mode
		close(rj.stop)
	})
}

func (rj *runningJob) observe(step int, meanReward float64) {
	rj.pmu.Lock()
	defer rj.pmu.Unlock()
	rj.step = step
	rj.meanReward = meanReward
	if len(rj.tail) == 0 || meanReward > rj.bestReward {
		rj.bestReward = meanReward
	}
	rj.tail = append(rj.tail, meanReward)
	if len(rj.tail) > progressTail {
		rj.tail = rj.tail[1:]
	}
}

// Progress is the live view of a running job.
type Progress struct {
	// Step is the last completed search step (warmup excluded).
	Step int `json:"step"`
	// MeanReward is the last step's mean reward; BestReward the best
	// step-mean so far; RewardTail the recent reward curve (newest last).
	MeanReward float64   `json:"mean_reward"`
	BestReward float64   `json:"best_reward"`
	RewardTail []float64 `json:"reward_tail,omitempty"`
	// CancelRequested is set once DELETE has been accepted but the run
	// has not yet reached a step boundary.
	CancelRequested bool `json:"cancel_requested,omitempty"`
}

func (rj *runningJob) progress() *Progress {
	rj.pmu.Lock()
	defer rj.pmu.Unlock()
	return &Progress{
		Step:            rj.step,
		MeanReward:      rj.meanReward,
		BestReward:      rj.bestReward,
		RewardTail:      append([]float64(nil), rj.tail...),
		CancelRequested: rj.cancelReq,
	}
}

// Status is a job's externally visible state: the durable record plus, for
// a running job, live progress.
type Status struct {
	Record
	Progress *Progress `json:"progress,omitempty"`
}

// Service runs jobs from a durable queue on a bounded worker pool.
//
// Scheduling is per-tenant fair-share: each tenant has its own FIFO, and
// workers pick the next job round-robin across tenants with backlog, so a
// tenant submitting hundreds of jobs delays its own queue, not its
// neighbours'. Admission enforces a per-tenant quota and a global queue
// bound; both reject at submit time so overload surfaces as fast 429s
// instead of unbounded queues.
type Service struct {
	store *Store
	opts  Options
	ins   instruments

	mu         sync.Mutex
	cond       *sync.Cond
	queues     map[string][]string // tenant → queued job IDs, FIFO
	ring       []string            // tenant round-robin order
	cursor     int                 // next ring slot to inspect
	queued     int                 // total queued across tenants
	running    map[string]*runningJob
	dispatched []string // dispatch order, for tests and debugging
	draining   bool

	// paused, while true, keeps workers from dispatching. Tests use it to
	// build multi-tenant backlogs deterministically before releasing the
	// pool; set and cleared under mu with a broadcast.
	paused bool

	// crashStep, when non-nil, simulates process death: once it returns
	// true for (id, step) the job's runner aborts without journaling, as
	// a SIGKILL would. Test-only; the CI chaos leg covers the real thing.
	crashStep func(id string, step int) bool
	// crashAfterDone, when non-nil, simulates process death in the one
	// window after a job's done record is durable and before its
	// snapshots are deleted: once it returns true for id the runner
	// aborts there. Test-only.
	crashAfterDone func(id string) bool

	wg sync.WaitGroup
}

// Open replays the journal under root, re-enqueues every unfinished job
// (interrupted running jobs go back to queued and will resume from their
// newest snapshot), and starts the worker pool.
func Open(root string, opts Options) (*Service, error) {
	opts = opts.withDefaults()
	store, err := OpenStore(root, StoreOptions{
		FS:      opts.FS,
		Clock:   opts.Clock,
		Metrics: opts.Metrics,
		Logf:    opts.Logf,
	})
	if err != nil {
		return nil, err
	}
	s := &Service{
		store:   store,
		opts:    opts,
		ins:     newInstruments(opts.Metrics),
		queues:  make(map[string][]string),
		running: make(map[string]*runningJob),
	}
	s.cond = sync.NewCond(&s.mu)
	if err := s.recover(); err != nil {
		return nil, err
	}
	for i := 0; i < opts.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s, nil
}

// recover re-enqueues unfinished jobs from the replayed journal, in
// submission order so recovery is deterministic. A job found running lost
// its process mid-run: it is journaled back to queued with Resumes
// incremented and will restart from its newest snapshot. A done job's
// snapshots are deleted, in case its process died between the done
// record and their removal.
func (s *Service) recover() error {
	for _, rec := range s.store.List() {
		switch rec.State {
		case StateDone:
			s.store.DropCheckpoints(rec.ID)
		case StateRunning:
			rec.State = StateQueued
			rec.Resumes++
			if err := s.store.Put(rec); err != nil {
				return err
			}
			s.ins.resumed.Inc()
			s.opts.Logf("jobs: %s interrupted mid-run; re-enqueued for resume (resume #%d)", rec.ID, rec.Resumes)
			s.enqueueLocked(rec.Tenant, rec.ID)
		case StateQueued:
			s.enqueueLocked(rec.Tenant, rec.ID)
		}
	}
	return nil
}

// enqueueLocked appends the job to its tenant's FIFO. Callers hold mu or
// have exclusive access (Open).
func (s *Service) enqueueLocked(tenant, id string) {
	if _, ok := s.queues[tenant]; !ok {
		s.ring = append(s.ring, tenant)
	}
	s.queues[tenant] = append(s.queues[tenant], id)
	s.queued++
	s.ins.queueDepth.Set(float64(s.queued))
	s.ins.tenantDepth(tenant).Set(float64(len(s.queues[tenant])))
}

// nextLocked picks the next job fairly: scan tenants round-robin from the
// cursor, take the head of the first non-empty FIFO, and advance the
// cursor past the tenant served — so with two tenants backlogged the
// dispatch order strictly alternates regardless of how lopsided the
// backlogs are.
func (s *Service) nextLocked() (string, bool) {
	n := len(s.ring)
	for i := 0; i < n; i++ {
		t := s.ring[(s.cursor+i)%n]
		q := s.queues[t]
		if len(q) == 0 {
			continue
		}
		id := q[0]
		s.queues[t] = q[1:]
		s.queued--
		s.cursor = (s.cursor + i + 1) % n
		s.ins.queueDepth.Set(float64(s.queued))
		s.ins.tenantDepth(t).Set(float64(len(s.queues[t])))
		return id, true
	}
	return "", false
}

func (s *Service) worker() {
	defer s.wg.Done()
	s.mu.Lock()
	for {
		for !s.draining && (s.queued == 0 || s.paused) {
			s.cond.Wait()
		}
		if s.draining {
			s.mu.Unlock()
			return
		}
		id, ok := s.nextLocked()
		if !ok {
			continue
		}
		rec, found := s.store.Get(id)
		if !found {
			continue
		}
		rj := &runningJob{tenant: rec.Tenant, stop: make(chan struct{})}
		s.running[id] = rj
		s.dispatched = append(s.dispatched, id)
		s.ins.running.Set(float64(len(s.running)))
		s.mu.Unlock()

		crashed := s.runJob(rec, rj)

		s.mu.Lock()
		delete(s.running, id)
		s.ins.running.Set(float64(len(s.running)))
		if crashed {
			// Simulated process death: this worker is "gone" too.
			s.mu.Unlock()
			return
		}
	}
}

// tenantLoadLocked counts the tenant's queued plus running jobs.
func (s *Service) tenantLoadLocked(tenant string) int {
	n := len(s.queues[tenant])
	for _, rj := range s.running {
		if rj.tenant == tenant {
			n++
		}
	}
	return n
}

// ValidTenant reports whether the name is usable as a tenant: 1..32
// characters from [a-z0-9_-]. The constraint keeps tenant names safe in
// metric names, file paths and headers.
func ValidTenant(t string) bool {
	if len(t) == 0 || len(t) > 32 {
		return false
	}
	for _, c := range t {
		switch {
		case c >= 'a' && c <= 'z', c >= '0' && c <= '9', c == '_', c == '-':
		default:
			return false
		}
	}
	return true
}

// Submit validates and journals a new job, enqueues it, and returns its
// record. ErrQuota and ErrBusy are admission rejections; ErrDraining
// means the service is shutting down.
func (s *Service) Submit(tenant string, spec Spec) (Record, error) {
	if !ValidTenant(tenant) {
		return Record{}, fmt.Errorf("jobs: invalid tenant %q (want 1..32 chars of [a-z0-9_-])", tenant)
	}
	spec = spec.Normalize()
	if err := spec.Validate(); err != nil {
		return Record{}, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return Record{}, ErrDraining
	}
	if s.tenantLoadLocked(tenant) >= s.opts.TenantQuota {
		s.ins.shed.Inc()
		return Record{}, ErrQuota
	}
	if s.queued >= s.opts.MaxQueue {
		s.ins.shed.Inc()
		return Record{}, ErrBusy
	}
	rec := Record{
		ID:            s.store.NextID(),
		Tenant:        tenant,
		State:         StateQueued,
		Spec:          spec,
		SubmittedUnix: s.opts.Clock.Now().Unix(),
	}
	if err := s.store.Put(rec); err != nil {
		return Record{}, err
	}
	s.enqueueLocked(tenant, rec.ID)
	s.ins.submitted.Inc()
	s.cond.Signal()
	rec.Seq = 1
	return rec, nil
}

// get returns the job's record if it exists and belongs to tenant.
func (s *Service) get(tenant, id string) (Record, error) {
	rec, ok := s.store.Get(id)
	if !ok || rec.Tenant != tenant {
		return Record{}, ErrNotFound
	}
	return rec, nil
}

// Status returns the job's durable record plus live progress when it is
// running. Foreign and unknown jobs are indistinguishable (ErrNotFound).
func (s *Service) Status(tenant, id string) (Status, error) {
	rec, err := s.get(tenant, id)
	if err != nil {
		return Status{}, err
	}
	st := Status{Record: rec}
	s.mu.Lock()
	if rj, ok := s.running[id]; ok {
		st.Progress = rj.progress()
	}
	s.mu.Unlock()
	return st, nil
}

// List returns the tenant's jobs in submission order.
func (s *Service) List(tenant string) []Status {
	var out []Status
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, rec := range s.store.List() {
		if rec.Tenant != tenant {
			continue
		}
		st := Status{Record: rec}
		if rj, ok := s.running[rec.ID]; ok {
			st.Progress = rj.progress()
		}
		out = append(out, st)
	}
	return out
}

// Cancel requests cooperative cancellation. A queued job is cancelled
// immediately; a running job is signalled and transitions at its next
// step boundary, after flushing a final snapshot (cancelling is cheap to
// undo: the snapshot makes the work resumable by a future job). Cancel of
// a terminal job is a no-op returning its state.
func (s *Service) Cancel(tenant, id string) (Status, error) {
	rec, err := s.get(tenant, id)
	if err != nil {
		return Status{}, err
	}
	s.mu.Lock()
	if rj, ok := s.running[id]; ok {
		rj.pmu.Lock()
		rj.cancelReq = true
		rj.pmu.Unlock()
		rj.signal(modeCancel)
		st := Status{Record: rec, Progress: rj.progress()}
		s.mu.Unlock()
		return st, nil
	}
	if rec.State == StateQueued {
		q := s.queues[rec.Tenant]
		for i, qid := range q {
			if qid == id {
				s.queues[rec.Tenant] = append(q[:i:i], q[i+1:]...)
				s.queued--
				s.ins.queueDepth.Set(float64(s.queued))
				s.ins.tenantDepth(rec.Tenant).Set(float64(len(s.queues[rec.Tenant])))
				break
			}
		}
		rec.State = StateCancelled
		rec.FinishedUnix = s.opts.Clock.Now().Unix()
		err := s.store.Put(rec)
		s.mu.Unlock()
		if err != nil {
			return Status{}, err
		}
		s.ins.cancelled.Inc()
		return Status{Record: rec}, nil
	}
	s.mu.Unlock()
	return Status{Record: rec}, nil
}

// Artifact opens a finished job's result file.
func (s *Service) Artifact(tenant, id, name string) (io.ReadCloser, error) {
	rec, err := s.get(tenant, id)
	if err != nil {
		return nil, err
	}
	for _, a := range rec.Artifacts {
		if a == name {
			return s.store.OpenArtifact(id, name)
		}
	}
	return nil, ErrNotFound
}

// Drain shuts the service down gracefully: submissions are refused,
// queued jobs stay queued (their journal records already say so), and
// every running job is parked — signalled to stop at its next step
// boundary, flush a final snapshot, and journal back to queued. Drain
// returns once all workers have finished; a subsequent Open on the same
// root resumes exactly where this process left off.
func (s *Service) Drain() {
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		for _, rj := range s.running {
			rj.signal(modePark)
		}
		s.cond.Broadcast()
	}
	s.mu.Unlock()
	s.wg.Wait()
}

// Close is Drain: the service holds no other resources.
func (s *Service) Close() { s.Drain() }
