package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"h2onas/internal/checkpoint"
	"h2onas/internal/httpserve"
	"h2onas/internal/jobs"
)

// serveRunner is search-as-a-service: a jobs.Service on a real directory
// behind httpserve's hardened handler, driven by a closed loop of clients.
// Callers of a job API wait for their reply, hence closed loop: each of
// the 2 clients (2 tenants) submits its next job only after fetching the
// previous one's result, polling status every 10 ms in between.
type serveRunner struct {
	o      runOpts
	dir    string
	svc    *jobs.Service
	ts     *httptest.Server
	fs     *recordingFS // nil unless the run is traced
	spec   jobs.Spec
	nextID atomic.Int64 // job index: fixes each job's strategy and seed

	shed     atomic.Int64 // 429/503 replies seen
	statusUs []float64    // traced window: every status poll
	lastDone []jobTimes   // traced window
}

const (
	serveClients = 2
	pollEvery    = 10 * time.Millisecond
)

var strategies = [...]string{"reinforce", "random", "evolution", "halving"}

func setupServe(o runOpts) (runner, error) {
	r := &serveRunner{o: o, spec: jobs.Spec{Steps: 24, Shards: 2, Batch: 32}}
	if o.smoke {
		r.spec = jobs.Spec{Steps: 16, Shards: 2, Batch: 4, Warmup: 1} // halving needs 15 evaluations
	}
	var err error
	if r.dir, err = os.MkdirTemp(o.out, "serve-"); err != nil {
		return nil, err
	}
	opts := jobs.Options{Workers: serveClients}
	if o.trace {
		r.fs = &recordingFS{FS: checkpoint.OS(), root: filepath.Join(r.dir, "jobs")}
		opts.FS = r.fs
	}
	if r.svc, err = jobs.Open(filepath.Join(r.dir, "jobs"), opts); err != nil {
		os.RemoveAll(r.dir)
		return nil, err
	}
	mux := http.NewServeMux()
	r.svc.Mount(mux)
	r.ts = httptest.NewServer(httpserve.New("", mux, httpserve.Config{}).Handler())
	// One job through the whole path before the window: connections,
	// journal directories and the kernel pool exist afterwards.
	if _, err := r.job(0, r.jobSpec(0)); err != nil {
		r.close()
		return nil, fmt.Errorf("warm-up job: %w", err)
	}
	return r, nil
}

func (r *serveRunner) close() {
	r.ts.Close()
	r.svc.Close()
	os.RemoveAll(r.dir)
}

// jobSpec is job i's specification: strategies cycle, seeds count up.
func (r *serveRunner) jobSpec(i int64) jobs.Spec {
	sp := r.spec
	sp.Strategy = strategies[i%int64(len(strategies))]
	sp.Seed = mixSeed(r.o.seed, int(i))
	return sp
}

// jobTimes is what a client saw of one job.
type jobTimes struct {
	id                         string
	index                      int64
	client                     int
	t0, submitted, first, done time.Time // POST start/end, first policy step seen, terminal state seen
	fetched                    time.Time // artifact in hand
	polls                      [][2]time.Time
	result                     []byte
}

func (r *serveRunner) request(method, path string, client int, body []byte) (int, []byte, error) {
	req, err := http.NewRequest(method, r.ts.URL+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("X-Tenant", fmt.Sprintf("tenant-%d", client))
	resp, err := r.ts.Client().Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable {
		r.shed.Add(1)
	}
	return resp.StatusCode, data, err
}

// job runs one job through the API as client c: submit, poll until done,
// fetch the result.
func (r *serveRunner) job(c int, spec jobs.Spec) (*jobTimes, error) {
	jt := &jobTimes{client: c, t0: time.Now()}
	body, _ := json.Marshal(spec) // a struct of scalars cannot fail to encode
	code, data, err := r.request("POST", "/jobs", c, body)
	jt.submitted = time.Now()
	var rec jobs.Record
	if err != nil || code != http.StatusAccepted || json.Unmarshal(data, &rec) != nil {
		return nil, fmt.Errorf("submit: status %d, err %v", code, err)
	}
	jt.id = rec.ID
	for {
		p0 := time.Now()
		code, data, err = r.request("GET", "/jobs/"+jt.id, c, nil)
		now := time.Now()
		jt.polls = append(jt.polls, [2]time.Time{p0, now})
		var st jobs.Status
		if err != nil || code != http.StatusOK || json.Unmarshal(data, &st) != nil {
			return nil, fmt.Errorf("status of %s: status %d, err %v", jt.id, code, err)
		}
		// A reward in the tail means the first policy step is done: the
		// supernet is built and warm-up is over.
		if jt.first.IsZero() && (st.State.Terminal() || (st.Progress != nil && len(st.Progress.RewardTail) > 0)) {
			jt.first = now
		}
		if st.State.Terminal() {
			jt.done = now
			if st.State != jobs.StateDone {
				return nil, fmt.Errorf("job %s ended %s: %s", jt.id, st.State, st.Error)
			}
			break
		}
		time.Sleep(pollEvery)
	}
	code, jt.result, err = r.request("GET", "/jobs/"+jt.id+"/artifacts/result.json", c, nil)
	jt.fetched = time.Now()
	if err != nil || code != http.StatusOK || !json.Valid(jt.result) {
		return nil, fmt.Errorf("result.json of %s: status %d, err %v, valid JSON %v", jt.id, code, err, json.Valid(jt.result))
	}
	return jt, nil
}

func (r *serveRunner) measure(budget time.Duration, tr *tracer) (*window, *window, error) {
	if tr == nil {
		return r.loop(budget, nil), nil, nil
	}
	// A closed loop has no rounds to interleave: a bare loop either side of
	// the traced one instead. Both bare loops run the same jobs, so the
	// first one's digests stand for both.
	u := r.loop(budget*2/7, nil)
	t := r.loop(budget*3/7, tr)
	again := r.loop(budget*2/7, nil)
	u.ops += again.ops
	u.opMs = append(u.opMs, again.opMs...)
	u.startMs = append(u.startMs, again.startMs...)
	u.attempted += again.attempted
	u.failed += again.failed
	u.problems = append(u.problems, again.problems...)
	return u, t, nil
}

// loop runs the closed loop for budget and lets the jobs in flight finish.
func (r *serveRunner) loop(budget time.Duration, tr *tracer) *window {
	w := &window{}
	var mu sync.Mutex
	var done []*jobTimes
	r.nextID.Store(0)
	if r.fs != nil {
		r.fs.record(tr != nil)
	}
	m := startMeter()
	deadline := time.Now().Add(budget)
	var wg sync.WaitGroup
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for first := true; first || time.Now().Before(deadline); first = false {
				// Both clients open with job 0's spec: two jobs with one
				// spec and seed must serve byte-identical results.
				i := int64(0)
				if !first {
					i = r.nextID.Add(1)
				}
				jt, err := r.job(c, r.jobSpec(i))
				mu.Lock()
				w.check(err == nil, "job %d: %v", i, err)
				if err == nil {
					jt.index = i
					done = append(done, jt)
				}
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	m.stop(w)

	var twins [][]byte
	byIndex := map[int64][]byte{}
	for _, jt := range done {
		w.ops++
		w.opMs = append(w.opMs, ms(jt.fetched.Sub(jt.t0)))
		w.startMs = append(w.startMs, ms(jt.first.Sub(jt.t0)))
		if jt.index == 0 {
			twins = append(twins, jt.result)
		}
		byIndex[jt.index] = jt.result
	}
	w.check(len(twins) == 2 && bytes.Equal(twins[0], twins[1]), "the two jobs with identical spec and seed returned different result.json")
	// Job i's spec is fixed by i, so its result bytes identify the run the
	// way a trajectory digest does.
	for i := int64(0); ; i++ {
		data, ok := byIndex[i]
		if !ok {
			break
		}
		h := fnv.New64a()
		h.Write(data)
		w.digests = append(w.digests, h.Sum64())
	}
	if tr != nil {
		r.lastDone = r.lastDone[:0]
		for _, jt := range done {
			r.lastDone = append(r.lastDone, *jt)
		}
		r.spans(tr)
	}
	return w
}

// spans turns what the clients saw and what the filesystem seam recorded
// into one span tree per job.
func (r *serveRunner) spans(tr *tracer) {
	events := r.fs.take()
	for k, jt := range r.lastDone {
		job := tr.begin("job", jt.t0, -1, k, jt.client, true)
		tr.finish(job, jt.fetched)
		tr.add("httpserve.submit", jt.t0, jt.submitted, job, k, jt.client)
		tr.add("jobs.artifact", jt.done, jt.fetched, job, k, jt.client)
		// The journal is the job's lifecycle: record 1 says queued, 2
		// running, 3 done. A worker can pick a job up before the client has
		// read the reply to its POST, so the wait starts at record 1.
		var state [4]time.Time
		for _, ev := range events {
			if ev.job == jt.id && ev.kind == "journal" && ev.seq < uint64(len(state)) {
				state[ev.seq] = ev.end
			}
		}
		queued, running, finished := state[1], state[2], state[3]
		if queued.IsZero() || running.IsZero() || finished.IsZero() {
			continue
		}
		tr.add("jobs.queue_wait", queued, running, job, k, jt.client)
		run := tr.begin("jobs.run", running, job, k, jt.client, false)
		tr.finish(run, finished)
		for _, ev := range events {
			if ev.job == jt.id && !ev.start.Before(running) && !ev.end.After(finished) {
				tr.add(ev.span(), ev.start, ev.end, run, k, jt.client)
			}
		}
		for _, p := range jt.polls {
			r.statusUs = append(r.statusUs, us(p[1].Sub(p[0])))
		}
	}
}

func (r *serveRunner) layers(u, t *window, tr *tracer, budget time.Duration) (map[string]float64, error) {
	m := map[string]float64{}
	m["httpserve.submit_ms_p50"] = median(tr.durations("httpserve.submit"))
	m["httpserve.status_us_p50"] = median(r.statusUs)
	m["httpserve.shed_total"] = float64(r.shed.Load())
	m["jobs.queue_wait_ms_p50"] = median(tr.durations("jobs.queue_wait"))
	m["jobs.first_progress_ms_p50"] = median(t.startMs)
	runS := median(tr.durations("jobs.run")) / 1e3
	m["jobs.run_s_p50"] = runS
	m["jobs.artifact_ms_p50"] = median(tr.durations("jobs.artifact"))

	// A finished job's status, asked directly: what HTTP adds on top.
	if len(r.lastDone) == 0 {
		return nil, fmt.Errorf("no job finished in the traced window")
	}
	jt := r.lastDone[0]
	tenant := fmt.Sprintf("tenant-%d", jt.client)
	p := newProber(budget, 12)
	var err error
	direct := timeCalls(p.each, 16, func() {
		if _, serr := r.svc.Status(tenant, jt.id); serr != nil {
			err = serr
		}
	})
	if err != nil {
		return nil, err
	}
	m["httpserve.overhead_us"] = m["httpserve.status_us_p50"] - us(direct)

	// The same search a job runs, alone and in process: what share of a
	// job's run is outside the search loop's steps.
	env := newDLRMEnv()
	sp := r.spec.Normalize()
	z := searchSize{shards: sp.Shards, batch: sp.Batch, warmup: sp.Warmup, steps: sp.Steps}
	probe := &window{}
	if _, _, err := coreRound(env, z, r.o.seed, probe, nil, 0, nil, "core"); err != nil {
		return nil, err
	}
	m["jobs.outside_search_share"] = 1 - ratio(float64(z.total())*median(probe.opMs)/1e3, runS)

	if err := p.checkpoints(m, env, z, r.o.seed, r.dir); err != nil {
		return nil, err
	}
	if err := p.journal(m, r.spec, r.dir); err != nil {
		return nil, err
	}
	p.supernetCold(m, env, r.o.seed)
	return m, nil
}

// recordingFS is the benchmark's checkpoint.FS: the real filesystem with a
// note of every atomic write (create … sync … rename) made through it
// while recording is on. It is the one seam through which the journal, the
// job snapshots and the artifacts reach the disk.
type recordingFS struct {
	checkpoint.FS
	root string

	mu      sync.Mutex
	on      bool
	created map[string]time.Time
	events  []fsEvent
}

type fsEvent struct {
	kind       string // journal, checkpoint or artifact
	job        string
	seq        uint64 // journal records only
	start, end time.Time
}

func (e fsEvent) span() string {
	switch e.kind {
	case "journal":
		return "jobs.journal_put"
	case "checkpoint":
		return "checkpoint.save"
	}
	return "jobs.artifact_write"
}

func (f *recordingFS) record(on bool) {
	f.mu.Lock()
	f.on, f.created, f.events = on, map[string]time.Time{}, nil
	f.mu.Unlock()
}

func (f *recordingFS) take() []fsEvent {
	f.mu.Lock()
	defer f.mu.Unlock()
	ev := f.events
	f.events = nil
	return ev
}

func (f *recordingFS) Create(name string) (checkpoint.File, error) {
	f.mu.Lock()
	if f.on {
		f.created[name] = time.Now()
	}
	f.mu.Unlock()
	return f.FS.Create(name)
}

func (f *recordingFS) Rename(oldPath, newPath string) error {
	err := f.FS.Rename(oldPath, newPath)
	f.mu.Lock()
	defer f.mu.Unlock()
	start, ok := f.created[oldPath]
	if !ok {
		return err
	}
	delete(f.created, oldPath)
	rel, rerr := filepath.Rel(f.root, newPath)
	if rerr != nil {
		return err
	}
	parts := strings.Split(filepath.ToSlash(rel), "/")
	ev := fsEvent{start: start, end: time.Now()}
	switch {
	case parts[0] == "journal" && len(parts) == 2:
		// "<id>.<seq>.jrec"
		fields := strings.Split(parts[1], ".")
		if len(fields) != 3 {
			return err
		}
		ev.kind, ev.job = "journal", fields[0]
		fmt.Sscanf(fields[1], "%d", &ev.seq)
	case parts[0] == "ckpt" && len(parts) == 3:
		ev.kind, ev.job = "checkpoint", parts[1]
	case parts[0] == "artifacts" && len(parts) == 3:
		ev.kind, ev.job = "artifact", parts[1]
	default:
		return err
	}
	f.events = append(f.events, ev)
	return err
}
