package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"h2onas/internal/tensor"
)

// runOpts are the inputs of one workload run. The seed is the only input
// of the workload itself; everything handed to the program under test is
// generated from it.
type runOpts struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	smoke    bool   // tiny sizes for the smoke test
	out      string // directory for traces, reports and scratch files
}

// scale names the sizes the run uses, as the -scale flag spells them.
func (o runOpts) scale() string {
	if o.smoke {
		return "smoke"
	}
	return "full"
}

// window is what one timed window of a workload measured.
type window struct {
	wall time.Duration
	// ops is the work completed: search steps (warm-up included — users
	// pay them every search), jobs, or analytic search steps.
	ops int
	// opMs are per-op latencies in ms: post-warm-up gaps between Progress
	// callbacks, or client-observed job latencies.
	opMs []float64
	// startMs are times to the first op, one per round or job.
	startMs []float64
	// roundP50 is each fixed-size round's median op latency (empty for the
	// closed-loop workload).
	roundP50 []float64
	// digests identify each round's outputs bit for bit.
	digests []uint64
	// attempted counts ops plus correctness checks; failed counts the ones
	// that went wrong. problems says what.
	attempted, failed int
	problems          []string

	mallocs, allocBytes uint64
	cpu                 time.Duration
	matrixAllocs        int64
}

// check records one correctness check.
func (w *window) check(ok bool, format string, args ...any) {
	w.attempted++
	if !ok {
		w.failed++
		w.problems = append(w.problems, fmt.Sprintf(format, args...))
	}
}

// runner is a set-up workload: everything built before the timed window.
type runner interface {
	// measure runs the workload for about budget and returns what it saw
	// with the program running bare. With a tracer it also runs the same
	// work with the benchmark's span wrappers installed around the layers'
	// public seams, interleaved with the bare work so drift over the run
	// cancels, and returns that as the traced window.
	measure(budget time.Duration, tr *tracer) (untraced, traced *window, err error)
	// layers returns the workload's per-layer metrics from those two
	// windows, spending about budget on isolated probes of the layers the
	// workload drives.
	layers(untraced, traced *window, tr *tracer, budget time.Duration) (map[string]float64, error)
	close()
}

var workloads = map[string]func(o runOpts) (runner, error){
	wDLRM:     setupDLRM,
	wViT:      setupViT,
	wRPC:      setupRPC,
	wServe:    setupServe,
	wAnalytic: setupAnalytic,
}

// setupRuns is how many times a run sets its workload up; setup_s is the
// median, so one slow page-in does not decide it.
const setupRuns = 3

// result is what one run reports. The driver reads the last-line JSON
// (wire); the full record — digests, sample counts, problems — is printed
// for people and kept for the report.
type result struct {
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   map[string]float64 `json:"metrics"`
	Samples   map[string]int     `json:"samples"`
	Digests   []string           `json:"trajectory_digests"`
	Problems  []string           `json:"problems,omitempty"`
	// Unresolved marks a traced run whose per-layer numbers should not be
	// trusted: tracing moved the step time by more than 10 % or changed a
	// trajectory digest.
	Unresolved bool   `json:"unresolved,omitempty"`
	TracePath  string `json:"trace_path,omitempty"`
}

// runWorkload is one run of one workload: set up (three times, keeping the
// last), then the timed window — traced, the window's work runs bare and
// under spans, followed by the isolated layer probes.
func runWorkload(o runOpts) (*result, error) {
	setup, ok := workloads[o.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", o.workload)
	}
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return nil, err
	}
	var r runner
	var setupS []float64
	for i := 0; i < setupRuns; i++ {
		if r != nil {
			r.close()
		}
		t0 := time.Now()
		var err error
		if r, err = setup(o); err != nil {
			return nil, fmt.Errorf("setting up %s: %w", o.workload, err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}
	defer r.close()

	budget := time.Duration(o.seconds * float64(time.Second))
	res := &result{Metrics: map[string]float64{}}
	if !o.trace {
		w, _, err := r.measure(budget, nil)
		if err != nil {
			return nil, err
		}
		res.Metrics = map[string]float64{
			"setup_s":       median(setupS),
			"ops_per_s":     float64(w.ops) / w.wall.Seconds(),
			"op_ms_p50":     median(w.opMs),
			"op_ms_p90":     percentile(w.opMs, 90),
			"start_ms":      median(w.startMs),
			"allocs_per_op": ratio(float64(w.mallocs), float64(w.ops)),
			"peak_rss_mb":   peakRSSMB(),
		}
		res.Samples = map[string]int{"ops": w.ops, "op_ms": len(w.opMs), "start_ms": len(w.startMs), "setup_s": len(setupS)}
		res.fill(w)
		return res, nil
	}

	// Traced: bare and traced work interleaved, then the probes. End-to-end
	// numbers never come from here.
	tr := newTracer()
	u, t, err := r.measure(budget*7/10, tr)
	if err != nil {
		return nil, err
	}
	m, err := r.layers(u, t, tr, budget*3/10)
	if err != nil {
		return nil, err
	}
	for i := 0; i < len(u.digests) && i < len(t.digests); i++ {
		same := u.digests[i] == t.digests[i]
		t.check(same, "round %d: traced digest %016x differs from untraced %016x", i, t.digests[i], u.digests[i])
		res.Unresolved = res.Unresolved || !same
	}
	m["trace.overhead_share"] = traceOverhead(t, u)
	if m["trace.overhead_share"] > 0.10 || m["trace.overhead_share"] < -0.10 {
		res.Unresolved = true
	}
	m["core.unattributed_share"] = tr.unattributedShare()
	m["core.cpu_s"] = t.cpu.Seconds()
	m["core.cores_busy"] = ratio(t.cpu.Seconds(), t.wall.Seconds())
	m["core.alloc_kb_per_step"] = ratio(float64(t.allocBytes)/1024, float64(t.ops))
	for _, d := range perLayer {
		if _, ok := m[d.Name]; !ok && d.measuredOn(o.workload) {
			return nil, fmt.Errorf("%s did not measure %s", o.workload, d.Name)
		}
		res.Metrics[d.Name] = m[d.Name] // 0 where the layer does no work
	}
	res.TracePath = filepath.Join(o.out, fmt.Sprintf("trace-%s-seed%d.json", o.workload, o.seed))
	if err := tr.writeChrome(res.TracePath); err != nil {
		return nil, err
	}
	res.Samples = map[string]int{"ops_untraced": u.ops, "ops_traced": t.ops, "spans": len(tr.spans)}
	res.fill(u)
	res.fill(t)
	return res, nil
}

// traceOverhead is (traced − untraced) ÷ untraced median op latency, taken
// round by round — each traced round against its bare twin, run just
// before it — and pooled when the workload has no rounds.
func traceOverhead(t, u *window) float64 {
	var shares []float64
	for i := 0; i < len(u.roundP50) && i < len(t.roundP50); i++ {
		shares = append(shares, ratio(t.roundP50[i]-u.roundP50[i], u.roundP50[i]))
	}
	if len(shares) > 0 {
		return median(shares)
	}
	return ratio(median(t.opMs)-median(u.opMs), median(u.opMs))
}

// fill folds a window's checks into the result.
func (res *result) fill(w *window) {
	res.Attempted += w.attempted
	res.Failed += w.failed
	res.Problems = append(res.Problems, w.problems...)
	for _, d := range w.digests {
		res.Digests = append(res.Digests, fmt.Sprintf("%016x", d))
	}
	res.Correct = res.Failed == 0
}

// meter brackets a timed window with the process counters the window
// reports: heap allocations, CPU time and tensor matrix allocations.
type meter struct {
	t0   time.Time
	ms   runtime.MemStats
	cpu  time.Duration
	mats int64
}

func startMeter() *meter {
	m := &meter{mats: tensor.MatrixAllocs(), cpu: processCPU()}
	runtime.ReadMemStats(&m.ms)
	m.t0 = time.Now()
	return m
}

// stop adds what happened since startMeter to the window: a window is the
// sum of its rounds.
func (m *meter) stop(w *window) {
	w.wall += time.Since(m.t0)
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	w.mallocs += after.Mallocs - m.ms.Mallocs
	w.allocBytes += after.TotalAlloc - m.ms.TotalAlloc
	w.cpu += processCPU() - m.cpu
	w.matrixAllocs += tensor.MatrixAllocs() - m.mats
}

// processCPU is the user+system CPU time the process has used.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's maximum resident set so far (Linux reports
// kilobytes).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// rounds runs fixed-size rounds until budget is spent: round i bare into
// the untraced window and, with a tracer, again under spans into the traced
// one — same seed, back to back. A round starts while the window has room
// for at least half of the previous one, so windows centre on the budget,
// and every window holds at least one round. The heap is collected,
// unmetered, before each round: a user runs one search per process, so one
// round's garbage must not sit under the next round's peak RSS.
func rounds(budget time.Duration, tr *tracer, round func(i int, w *window, tr *tracer) error) (u, t *window, err error) {
	u = &window{}
	if tr != nil {
		t = &window{}
	}
	metered := func(i int, w *window, tr *tracer) error {
		runtime.GC()
		m := startMeter()
		defer m.stop(w)
		return round(i, w, tr)
	}
	t0 := time.Now()
	var last time.Duration
	for i := 0; i == 0 || time.Since(t0)+last/2 < budget; i++ {
		r0 := time.Now()
		if err := metered(i, u, nil); err != nil {
			return nil, nil, err
		}
		if tr != nil {
			if err := metered(i, t, tr); err != nil {
				return nil, nil, err
			}
		}
		last = time.Since(r0)
	}
	return u, t, nil
}
