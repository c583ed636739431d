package httpserve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"h2onas/internal/metrics"
)

// gate is a controllable handler: each request signals entered and then
// blocks until release is closed (or its context dies). It makes
// saturation deterministic without a single time.Sleep assertion.
type gate struct {
	entered chan struct{}
	release chan struct{}
}

func newGate() *gate {
	return &gate{entered: make(chan struct{}, 1024), release: make(chan struct{})}
}

func (g *gate) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	g.entered <- struct{}{}
	select {
	case <-g.release:
		fmt.Fprintln(w, "done")
	case <-r.Context().Done():
		Error(w, r, http.StatusServiceUnavailable, "abandoned")
	}
}

func waitGauge(t *testing.T, g *metrics.Gauge, want float64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for g.Value() != want {
		if time.Now().After(deadline) {
			t.Fatalf("gauge stuck at %v, want %v", g.Value(), want)
		}
		runtime.Gosched()
	}
}

func TestAdmissionShedsWhenSaturated(t *testing.T) {
	reg := metrics.New()
	g := newGate()
	cfg := Config{MaxInFlight: 2, MaxQueue: 2, Metrics: reg}
	h := Chain(g, cfg, nil)

	var wg sync.WaitGroup
	codes := make(chan int, 8)
	do := func() {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest("GET", "/work", nil))
			codes <- rec.Code
		}()
	}

	// Fill the in-flight slots, then the queue.
	do()
	do()
	<-g.entered
	<-g.entered
	do()
	do()
	waitGauge(t, reg.Gauge("http_queue_depth"), 2)

	// Overflow: must shed immediately with 503 + Retry-After.
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/work", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("overflow request: code %d, want 503", rec.Code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Fatalf("shed response missing Retry-After header")
	}
	var body errorBody
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatalf("shed body is not JSON: %v (%q)", err, rec.Body.String())
	}
	if body.Status != 503 || body.Error == "" {
		t.Fatalf("shed body = %+v, want status 503 with message", body)
	}
	if got := reg.Counter("http_shed_total").Value(); got != 1 {
		t.Fatalf("http_shed_total = %d, want 1", got)
	}

	// Release: everyone admitted (running + queued) completes 200.
	close(g.release)
	wg.Wait()
	close(codes)
	for code := range codes {
		if code != http.StatusOK {
			t.Fatalf("admitted request finished with %d, want 200", code)
		}
	}
	if v := reg.Gauge("http_inflight_requests").Value(); v != 0 {
		t.Fatalf("inflight gauge = %v after drain, want 0", v)
	}
	if v := reg.Gauge("http_queue_depth").Value(); v != 0 {
		t.Fatalf("queue gauge = %v after drain, want 0", v)
	}
}

func TestQueuedRequestShedsOnContextCancel(t *testing.T) {
	reg := metrics.New()
	g := newGate()
	cfg := Config{MaxInFlight: 1, MaxQueue: 4, Metrics: reg}
	h := Chain(g, cfg, nil)
	defer close(g.release)

	// Occupy the only slot.
	go func() {
		h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/work", nil))
	}()
	<-g.entered

	// Queue one request with a cancellable client context.
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan int, 1)
	go func() {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", "/work", nil).WithContext(ctx))
		done <- rec.Code
	}()
	waitGauge(t, reg.Gauge("http_queue_depth"), 1)

	cancel()
	if code := <-done; code != http.StatusServiceUnavailable {
		t.Fatalf("cancelled queued request: code %d, want 503", code)
	}
	if got := reg.Counter("http_shed_total").Value(); got != 1 {
		t.Fatalf("http_shed_total = %d, want 1", got)
	}
}

func TestPanicRecovery(t *testing.T) {
	reg := metrics.New()
	mux := http.NewServeMux()
	mux.HandleFunc("/boom", func(w http.ResponseWriter, r *http.Request) {
		panic("kaboom")
	})
	mux.HandleFunc("/fine", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	var logged string
	h := Chain(mux, Config{Metrics: reg, Logf: func(f string, a ...any) {
		logged = fmt.Sprintf(f, a...)
	}}, nil)

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/boom", nil))
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("panic: code %d, want 500", rec.Code)
	}
	var body errorBody
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatalf("panic body not JSON: %v", err)
	}
	if body.RequestID == "" {
		t.Fatalf("panic body carries no request ID: %+v", body)
	}
	if got := reg.Counter("http_panics_total").Value(); got != 1 {
		t.Fatalf("http_panics_total = %d, want 1", got)
	}
	if !strings.Contains(logged, "kaboom") {
		t.Fatalf("panic log %q does not mention the panic value", logged)
	}

	// The process (and the stack) survives: the next request works.
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/fine", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("request after panic: code %d, want 200", rec.Code)
	}
	if got := reg.Counter("http_request_errors_total").Value(); got != 1 {
		t.Fatalf("http_request_errors_total = %d, want 1 (the 500)", got)
	}
}

func TestRequestIDsAssignedAndEchoed(t *testing.T) {
	var seen []string
	h := Chain(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		seen = append(seen, RequestID(r))
	}), Config{}, nil)

	r1, r2 := httptest.NewRecorder(), httptest.NewRecorder()
	h.ServeHTTP(r1, httptest.NewRequest("GET", "/", nil))
	h.ServeHTTP(r2, httptest.NewRequest("GET", "/", nil))
	if seen[0] == "" || seen[1] == "" || seen[0] == seen[1] {
		t.Fatalf("request IDs not unique/non-empty: %q, %q", seen[0], seen[1])
	}
	if got := r1.Header().Get("X-Request-ID"); got != seen[0] {
		t.Fatalf("response header %q, handler saw %q", got, seen[0])
	}

	// An inbound ID from a proxy is honoured.
	req := httptest.NewRequest("GET", "/", nil)
	req.Header.Set("X-Request-ID", "upstream-7")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if seen[2] != "upstream-7" {
		t.Fatalf("inbound request ID not honoured: %q", seen[2])
	}
}

func TestHealthSplit(t *testing.T) {
	h := NewHealth()
	live, ready := h.LivenessHandler(), h.ReadinessHandler()

	rec := httptest.NewRecorder()
	live.ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("liveness: %d, want 200", rec.Code)
	}
	rec = httptest.NewRecorder()
	ready.ServeHTTP(rec, httptest.NewRequest("GET", "/readyz", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("readiness before SetReady: %d, want 503", rec.Code)
	}
	h.SetReady(true)
	rec = httptest.NewRecorder()
	ready.ServeHTTP(rec, httptest.NewRequest("GET", "/readyz", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("readiness when ready: %d, want 200", rec.Code)
	}
	h.SetReady(false)
	rec = httptest.NewRecorder()
	ready.ServeHTTP(rec, httptest.NewRequest("GET", "/readyz", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("readiness during drain: %d, want 503", rec.Code)
	}
	// Liveness stays green during a drain: the process is still up.
	rec = httptest.NewRecorder()
	live.ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("liveness during drain: %d, want 200", rec.Code)
	}
}

func TestProbesBypassAdmission(t *testing.T) {
	g := newGate()
	mux := http.NewServeMux()
	mux.Handle("/work", g)
	srv := New("127.0.0.1:0", mux, Config{MaxInFlight: 1, MaxQueue: -1})
	srv.Health().SetReady(true)
	h := srv.Handler()
	defer close(g.release)

	go func() {
		h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/work", nil))
	}()
	<-g.entered

	// Saturated (queue of 0): work is shed, probes still answer.
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/work", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("saturated work request: %d, want 503", rec.Code)
	}
	for _, path := range []string{"/healthz", "/readyz"} {
		rec = httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("%s under saturation: %d, want 200", path, rec.Code)
		}
	}
}

func TestRunGracefulDrain(t *testing.T) {
	g := newGate()
	mux := http.NewServeMux()
	mux.Handle("/work", g)
	srv := New("127.0.0.1:0", mux, Config{DrainTimeout: 5 * time.Second})

	ctx, cancel := context.WithCancel(context.Background())
	runErr := make(chan error, 1)
	go func() { runErr <- srv.Run(ctx) }()

	// Wait for the listener to bind.
	deadline := time.Now().Add(5 * time.Second)
	for srv.Addr() == "" {
		if time.Now().After(deadline) {
			t.Fatal("server never bound")
		}
		runtime.Gosched()
	}
	base := "http://" + srv.Addr()

	resp, err := http.Get(base + "/readyz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz while running: %v %v", err, resp)
	}
	resp.Body.Close()

	// Put a request in flight, then trigger shutdown.
	inFlight := make(chan error, 1)
	go func() {
		resp, err := http.Get(base + "/work")
		if err != nil {
			inFlight <- err
			return
		}
		defer resp.Body.Close()
		if _, err := io.ReadAll(resp.Body); err != nil {
			inFlight <- err
			return
		}
		if resp.StatusCode != http.StatusOK {
			inFlight <- fmt.Errorf("in-flight request finished %d", resp.StatusCode)
			return
		}
		inFlight <- nil
	}()
	<-g.entered
	cancel()

	// Readiness flips false before the drain completes; the in-flight
	// request still finishes once released.
	deadline = time.Now().Add(5 * time.Second)
	for srv.health.ready.Load() {
		if time.Now().After(deadline) {
			t.Fatal("still ready after shutdown began")
		}
		runtime.Gosched()
	}
	close(g.release)
	if err := <-inFlight; err != nil {
		t.Fatalf("in-flight request during drain: %v", err)
	}
	if err := <-runErr; err != nil {
		t.Fatalf("Run returned %v, want nil (clean drain)", err)
	}
}
