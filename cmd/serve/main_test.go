package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"h2onas/internal/checkpoint"
	"h2onas/internal/httpserve"
	"h2onas/internal/hwsim"
	"h2onas/internal/jobs"
	"h2onas/internal/metrics"
	"h2onas/internal/models"
)

func testHandler(t *testing.T) (http.Handler, *metrics.Registry) {
	t.Helper()
	reg := metrics.New()
	chip, ok := hwsim.ChipByName("tpuv4i")
	if !ok {
		t.Fatal("tpuv4i chip missing")
	}
	srv := newServer("127.0.0.1:0", reg, chip, nil, httpserve.Config{Metrics: reg}, false)
	srv.Health().SetReady(true)
	return srv.Handler(), reg
}

func get(h http.Handler, target string, hdr ...string) *httptest.ResponseRecorder {
	req := httptest.NewRequest("GET", target, nil)
	for i := 0; i+1 < len(hdr); i += 2 {
		req.Header.Set(hdr[i], hdr[i+1])
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

func TestSimulateHappyPath(t *testing.T) {
	h, _ := testHandler(t)
	rec := get(h, "/simulate?model=dlrm&batch=4")
	if rec.Code != http.StatusOK {
		t.Fatalf("code %d, body %s", rec.Code, rec.Body.String())
	}
	var body struct {
		Model    string  `json:"model"`
		Chip     string  `json:"chip"`
		Batch    int     `json:"batch"`
		StepTime float64 `json:"step_time_s"`
		QPS      float64 `json:"qps"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatalf("response not JSON: %v (%s)", err, rec.Body.String())
	}
	if body.Model != "dlrm" || body.Chip != "TPUv4i" || body.Batch != 4 {
		t.Fatalf("unexpected body %+v", body)
	}
	if body.StepTime <= 0 || body.QPS <= 0 {
		t.Fatalf("non-positive results %+v", body)
	}
	if got := rec.Header().Get("X-Request-ID"); got == "" {
		t.Fatal("response missing X-Request-ID")
	}
}

func TestSimulateBadRequests(t *testing.T) {
	h, _ := testHandler(t)
	cases := []struct {
		name, target, wantMsg string
	}{
		{"missing model", "/simulate", "missing model"},
		{"unknown model", "/simulate?model=resnet", "unknown model"},
		{"trailing garbage variant", "/simulate?model=efficientnet-b5xyz", "not a variant number"},
		{"out of range variant", "/simulate?model=efficientnet-b9", "outside 0..7"},
		{"out of range coatnet", "/simulate?model=coatnet-9", "outside 0.."},
		{"unknown chip", "/simulate?model=dlrm&chip=tpu99", "unknown chip"},
		{"non-numeric batch", "/simulate?model=dlrm&batch=abc", "positive integer"},
		{"zero batch", "/simulate?model=dlrm&batch=0", "positive integer"},
		{"negative batch", "/simulate?model=dlrm&batch=-3", "positive integer"},
		{"absurd batch", "/simulate?model=dlrm&batch=1000000000", "exceeds the maximum"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rec := get(h, tc.target)
			if rec.Code != http.StatusBadRequest {
				t.Fatalf("code %d, want 400 (body %s)", rec.Code, rec.Body.String())
			}
			var body struct {
				Error     string `json:"error"`
				Status    int    `json:"status"`
				RequestID string `json:"request_id"`
			}
			if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
				t.Fatalf("error response not structured JSON: %v (%s)", err, rec.Body.String())
			}
			if body.Status != 400 || body.RequestID == "" {
				t.Fatalf("error envelope incomplete: %+v", body)
			}
			if !strings.Contains(body.Error, tc.wantMsg) {
				t.Fatalf("error %q does not mention %q", body.Error, tc.wantMsg)
			}
		})
	}
}

// TestBuilderForExactVariants runs the model-name table of
// internal/models' TestLookup and cmd/inspect's exec test through the
// /simulate handler: the three surfaces resolve names with the one
// models.Lookup, so none of them may accept, or die on, what another
// refuses.
func TestBuilderForExactVariants(t *testing.T) {
	h, _ := testHandler(t)
	valid := []string{
		"efficientnet-b0", "efficientnet-b7", "EfficientNet-B5",
		"efficientnet-hb5", "efficientnet-hb7", "coatnet-0", "coatnet-5",
		"coatnet-h3", "dlrm", "DLRM-H",
	}
	for _, name := range valid {
		if rec := get(h, "/simulate?model="+url.QueryEscape(name)); rec.Code != http.StatusOK {
			t.Errorf("model %q: code %d, want 200 (body %s)", name, rec.Code, rec.Body.String())
		}
	}
	invalid := []string{
		"efficientnet-b5xyz", "efficientnet-b9", "efficientnet-b-1",
		"efficientnet-b05", "efficientnet-b", "efficientnet-hb8",
		"coatnet-", "coatnet-6", "coatnet-9", "coatnet--1", "coatnet-h9",
		"coatnet-2x", "dlrmx", "dlrm-x", "resnet",
	}
	for _, name := range invalid {
		rec := get(h, "/simulate?model="+url.QueryEscape(name))
		if rec.Code != http.StatusBadRequest {
			t.Errorf("model %q: code %d, want 400 (body %s)", name, rec.Code, rec.Body.String())
		}
		if _, err := models.Lookup(name); err == nil || !strings.Contains(rec.Body.String(), strconv.Quote(err.Error())) {
			t.Errorf("model %q: body %s does not carry models.Lookup's error %v", name, rec.Body.String(), err)
		}
	}
}

func TestMetricsContentTypes(t *testing.T) {
	h, _ := testHandler(t)
	// Generate some traffic first so the exposition is non-trivial.
	get(h, "/simulate?model=dlrm&batch=1")

	rec := get(h, "/metrics")
	if rec.Code != http.StatusOK {
		t.Fatalf("prometheus: code %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("prometheus content type %q", ct)
	}
	if !strings.Contains(rec.Body.String(), "http_requests_total") {
		t.Fatal("prometheus exposition missing http_requests_total")
	}

	for _, target := range []struct {
		url    string
		accept string
	}{
		{"/metrics?format=json", ""},
		{"/metrics", "application/json"},
	} {
		rec := get(h, target.url, "Accept", target.accept)
		if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
			t.Fatalf("%v: content type %q, want application/json", target, ct)
		}
		if !json.Valid(rec.Body.Bytes()) {
			t.Fatalf("%v: body is not valid JSON", target)
		}
	}
}

func TestHealthzVersusReadyzDuringDrain(t *testing.T) {
	reg := metrics.New()
	chip, _ := hwsim.ChipByName("tpuv4i")
	srv := newServer("127.0.0.1:0", reg, chip, nil, httpserve.Config{Metrics: reg}, false)
	h := srv.Handler()

	// Before startup completes: alive but not ready.
	if rec := get(h, "/healthz"); rec.Code != http.StatusOK {
		t.Fatalf("healthz before ready: %d", rec.Code)
	}
	if rec := get(h, "/readyz"); rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("readyz before ready: %d, want 503", rec.Code)
	}

	srv.Health().SetReady(true)
	if rec := get(h, "/readyz"); rec.Code != http.StatusOK {
		t.Fatalf("readyz when ready: %d", rec.Code)
	}

	// Drain begins: readiness flips, liveness holds, traffic still flows
	// for in-flight/draining clients.
	srv.Health().SetReady(false)
	if rec := get(h, "/readyz"); rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("readyz during drain: %d, want 503", rec.Code)
	}
	if rec := get(h, "/healthz"); rec.Code != http.StatusOK {
		t.Fatalf("healthz during drain: %d, want 200", rec.Code)
	}
	if rec := get(h, "/simulate?model=dlrm"); rec.Code != http.StatusOK {
		t.Fatalf("simulate during drain: %d, want 200 (drain serves in-flight)", rec.Code)
	}
}

func TestLoadShedWhenSaturated(t *testing.T) {
	reg := metrics.New()
	chip, _ := hwsim.ChipByName("tpuv4i")
	mux := newMux(reg, chip, nil, false)
	entered := make(chan struct{}, 8)
	release := make(chan struct{})
	mux.HandleFunc("/block", func(w http.ResponseWriter, r *http.Request) {
		entered <- struct{}{}
		<-release
		fmt.Fprintln(w, "done")
	})
	srv := httpserve.New("127.0.0.1:0", mux, httpserve.Config{
		MaxInFlight: 1, MaxQueue: -1, Metrics: reg,
	})
	srv.Health().SetReady(true)
	h := srv.Handler()

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		get(h, "/block")
	}()
	<-entered

	// Saturated with no queue: /simulate must shed, not wait.
	rec := get(h, "/simulate?model=dlrm")
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("saturated simulate: code %d, want 503", rec.Code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Fatal("shed response missing Retry-After")
	}
	if got := reg.Counter("http_shed_total").Value(); got != 1 {
		t.Fatalf("http_shed_total = %d, want 1", got)
	}
	// Probes answer even while saturated.
	if rec := get(h, "/readyz"); rec.Code != http.StatusOK {
		t.Fatalf("readyz while saturated: %d", rec.Code)
	}

	close(release)
	wg.Wait()
	if rec := get(h, "/simulate?model=dlrm"); rec.Code != http.StatusOK {
		t.Fatalf("simulate after release: %d, want 200", rec.Code)
	}
}

// TestJobsAPIThroughHardenedServer exercises the job API exactly as
// -jobs-dir wires it: mounted in the service mux, behind admission
// control, request IDs and panic recovery, sharing the process metrics
// registry.
func TestJobsAPIThroughHardenedServer(t *testing.T) {
	reg := metrics.New()
	chip, _ := hwsim.ChipByName("tpuv4i")
	svc, err := jobs.Open("jobsroot", jobs.Options{
		Workers: 1, FS: checkpoint.NewMemFS(), Metrics: reg, Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc.Close)
	srv := newServer("127.0.0.1:0", reg, chip, svc, httpserve.Config{Metrics: reg, OnDrain: svc.Drain}, false)
	srv.Health().SetReady(true)
	h := srv.Handler()

	req := httptest.NewRequest("POST", "/jobs", strings.NewReader(`{"steps":3,"shards":2,"batch":8,"warmup":1,"seed":7}`))
	req.Header.Set("X-Tenant", "alice")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusAccepted {
		t.Fatalf("submit through stack = %d: %s", rec.Code, rec.Body)
	}
	if rec.Header().Get("X-Request-ID") == "" {
		t.Fatal("job response missing X-Request-ID (not behind the middleware stack?)")
	}
	var job struct {
		ID    string `json:"id"`
		State string `json:"state"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &job); err != nil || job.ID == "" {
		t.Fatalf("submit body = %s (err %v)", rec.Body, err)
	}

	deadline := time.Now().Add(60 * time.Second)
	for {
		rec := get(h, "/jobs/"+job.ID, "X-Tenant", "alice")
		if rec.Code != http.StatusOK {
			t.Fatalf("poll = %d: %s", rec.Code, rec.Body)
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &job); err != nil {
			t.Fatal(err)
		}
		if job.State == "done" {
			break
		}
		if job.State == "failed" || job.State == "cancelled" {
			t.Fatalf("job ended %s: %s", job.State, rec.Body)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %s", job.State)
		}
		time.Sleep(2 * time.Millisecond)
	}

	if rec := get(h, "/jobs/"+job.ID+"/artifacts/result.json", "X-Tenant", "alice"); rec.Code != http.StatusOK ||
		!json.Valid(rec.Body.Bytes()) {
		t.Fatalf("artifact through stack = %d: %s", rec.Code, rec.Body)
	}
	// The jobs instruments land in the same exposition as the HTTP ones.
	if rec := get(h, "/metrics"); !strings.Contains(rec.Body.String(), "jobs_done_total") {
		t.Fatal("metrics exposition missing jobs_done_total")
	}
}

func TestPanicRecoveryReturns500(t *testing.T) {
	reg := metrics.New()
	chip, _ := hwsim.ChipByName("tpuv4i")
	mux := newMux(reg, chip, nil, false)
	mux.HandleFunc("/panic", func(w http.ResponseWriter, r *http.Request) {
		panic("handler bug")
	})
	srv := httpserve.New("127.0.0.1:0", mux, httpserve.Config{Metrics: reg})
	srv.Health().SetReady(true)
	h := srv.Handler()

	rec := get(h, "/panic")
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("panic: code %d, want 500", rec.Code)
	}
	if got := reg.Counter("http_panics_total").Value(); got != 1 {
		t.Fatalf("http_panics_total = %d, want 1", got)
	}
	// The server survives the panic.
	if rec := get(h, "/simulate?model=dlrm"); rec.Code != http.StatusOK {
		t.Fatalf("simulate after panic: %d, want 200", rec.Code)
	}
}

// TestPprofMountIsOptIn pins the profiling surface's gate: without
// -pprof the /debug/pprof/ routes must not exist at all, and with it
// the index must answer through the hardened stack.
func TestPprofMountIsOptIn(t *testing.T) {
	chip, _ := hwsim.ChipByName("tpuv4i")

	reg := metrics.New()
	srv := newServer("127.0.0.1:0", reg, chip, nil, httpserve.Config{Metrics: reg}, false)
	srv.Health().SetReady(true)
	if rec := get(srv.Handler(), "/debug/pprof/"); rec.Code != http.StatusNotFound {
		t.Fatalf("/debug/pprof/ without -pprof = %d, want 404", rec.Code)
	}

	reg = metrics.New()
	srv = newServer("127.0.0.1:0", reg, chip, nil, httpserve.Config{Metrics: reg}, true)
	srv.Health().SetReady(true)
	if rec := get(srv.Handler(), "/debug/pprof/"); rec.Code != http.StatusOK {
		t.Fatalf("/debug/pprof/ with -pprof = %d, want 200", rec.Code)
	}
}

// TestCapacityTableBestRowIsMaxQPSUnderP99: the table's rows and the
// "best configuration" line come from one per-batch search, so on a
// model whose best batch is a table row the two must print the same
// rate (they used to be two copies of the bisection).
func TestCapacityTableBestRowIsMaxQPSUnderP99(t *testing.T) {
	build, err := models.Lookup("efficientnet-b5")
	if err != nil {
		t.Fatal(err)
	}
	chip, target := hwsim.TPUv4i(), 10*time.Millisecond
	var out strings.Builder
	capacityTable(&out, build, chip, target)
	bestRow, bestBatch := 0.0, ""
	for _, line := range strings.Split(strings.TrimSpace(out.String()), "\n")[1:] {
		cols := strings.Fields(line)
		if qps, _ := strconv.ParseFloat(cols[len(cols)-1], 64); qps > bestRow {
			bestRow, bestBatch = qps, cols[0]
		}
	}
	qps, batch := hwsim.MaxQPSUnderP99(build, chip, target.Seconds())
	if got, want := fmt.Sprintf("%.0f@%s", bestRow, bestBatch), fmt.Sprintf("%.0f@%d", qps, batch); got != want || qps == 0 {
		t.Fatalf("table's best row %s, MaxQPSUnderP99 %s\n%s", got, want, out.String())
	}
}

// TestCapacityTableSimulatesEachRowOnce: a row's service time does not
// depend on the query rate, so the idle tail and the max rate come from
// the one simulation of its batch.
func TestCapacityTableSimulatesEachRowOnce(t *testing.T) {
	build, err := models.Lookup("efficientnet-b5")
	if err != nil {
		t.Fatal(err)
	}
	reg := metrics.New()
	hwsim.SetMetrics(reg)
	t.Cleanup(func() { hwsim.SetMetrics(nil) })
	var out strings.Builder
	capacityTable(&out, build, hwsim.TPUv4i(), 10*time.Millisecond)
	rows := len(strings.Split(strings.TrimSpace(out.String()), "\n")) - 1
	if got := reg.Counter("hwsim_simulate_calls_total").Value(); rows != 4 || got != int64(rows) {
		t.Fatalf("%d table rows cost %d Simulate calls, want 4 rows at one call each", rows, got)
	}
}
