package httpserve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime/debug"
	"sync/atomic"
	"time"

	"h2onas/internal/metrics"
)

// instruments bundles the stack's metrics; every field is nil-safe so a
// nil registry yields a free stack.
type instruments struct {
	requests *metrics.Counter   // http_requests_total
	errors   *metrics.Counter   // http_request_errors_total (status >= 400)
	panics   *metrics.Counter   // http_panics_total
	shed     *metrics.Counter   // http_shed_total (admission rejections)
	inflight *metrics.Gauge     // http_inflight_requests
	queued   *metrics.Gauge     // http_queue_depth
	latency  *metrics.Histogram // http_request_seconds
}

func newInstruments(r *metrics.Registry) *instruments {
	return &instruments{
		requests: r.Counter("http_requests_total"),
		errors:   r.Counter("http_request_errors_total"),
		panics:   r.Counter("http_panics_total"),
		shed:     r.Counter("http_shed_total"),
		inflight: r.Gauge("http_inflight_requests"),
		queued:   r.Gauge("http_queue_depth"),
		latency:  r.Histogram("http_request_seconds"),
	}
}

// Chain wraps h in the full hardening stack, outermost first: request
// IDs and latency accounting, panic recovery, the per-request deadline,
// then admission control — the deadline sits outside admission so it
// bounds time spent waiting in the queue, not just handler execution.
// Use New for a managed server; Chain is the building block for
// embedding the stack in an existing mux.
func Chain(h http.Handler, cfg Config, ins *instruments) http.Handler {
	if ins == nil {
		ins = newInstruments(cfg.Metrics)
	}
	cfg = cfg.withDefaults()
	h = withAdmission(h, cfg, ins)
	h = withDeadline(h, cfg.RequestTimeout)
	h = withRecovery(h, cfg, ins)
	h = withRequestID(h, ins)
	return h
}

// ---- request IDs and structured errors ----

type ctxKey int

const requestIDKey ctxKey = iota

// reqSeq numbers requests within the process; combined with the process
// start stamp it yields IDs unique across restarts.
var (
	reqSeq   atomic.Uint64
	reqEpoch = time.Now().UnixNano()
)

// RequestID returns the request's ID ("" when the stack isn't
// installed). Handlers include it in logs so one slow request can be
// traced across layers.
func RequestID(r *http.Request) string {
	id, _ := r.Context().Value(requestIDKey).(string)
	return id
}

// withRequestID assigns each request an ID (honouring an inbound
// X-Request-ID from a trusted proxy), echoes it in the response header,
// counts the request and records its end-to-end latency.
func withRequestID(next http.Handler, ins *instruments) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := r.Header.Get("X-Request-ID")
		if id == "" {
			id = fmt.Sprintf("%x-%06d", reqEpoch, reqSeq.Add(1))
		}
		w.Header().Set("X-Request-ID", id)
		sw := &statusWriter{ResponseWriter: w}
		ins.requests.Inc()
		defer ins.latency.Start().End()
		next.ServeHTTP(sw, r.WithContext(context.WithValue(r.Context(), requestIDKey, id)))
		if sw.status() >= 400 {
			ins.errors.Inc()
		}
	})
}

// statusWriter records the response status so the stack can count
// errors and knows whether headers were already sent when recovering
// from a panic.
type statusWriter struct {
	http.ResponseWriter
	code  int
	wrote bool
}

func (w *statusWriter) WriteHeader(code int) {
	if !w.wrote {
		w.code, w.wrote = code, true
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	if !w.wrote {
		w.code, w.wrote = http.StatusOK, true
	}
	return w.ResponseWriter.Write(p)
}

func (w *statusWriter) status() int {
	if !w.wrote {
		return http.StatusOK
	}
	return w.code
}

// errorBody is the structured JSON error envelope every non-2xx response
// uses, so clients and runbooks parse one shape.
type errorBody struct {
	Error     string `json:"error"`
	Status    int    `json:"status"`
	RequestID string `json:"request_id,omitempty"`
}

// Error writes a structured JSON error response carrying the request ID.
func Error(w http.ResponseWriter, r *http.Request, code int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(errorBody{Error: msg, Status: code, RequestID: RequestID(r)})
}

// ---- panic recovery ----

// withRecovery converts a handler panic into a 500 (when headers are
// still unsent), increments http_panics_total, and keeps the process
// alive. http.ErrAbortHandler passes through: it is net/http's sanctioned
// way to abort a response.
func withRecovery(next http.Handler, cfg Config, ins *instruments) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sw, ok := w.(*statusWriter)
		if !ok {
			sw = &statusWriter{ResponseWriter: w}
		}
		defer func() {
			rec := recover()
			if rec == nil {
				return
			}
			if rec == http.ErrAbortHandler {
				panic(rec)
			}
			ins.panics.Inc()
			cfg.logf("httpserve: panic serving %s %s (request %s): %v\n%s",
				r.Method, r.URL.Path, RequestID(r), rec, debug.Stack())
			if !sw.wrote {
				Error(sw, r, http.StatusInternalServerError, "internal server error")
			}
		}()
		next.ServeHTTP(sw, r)
	})
}

// ---- admission control ----

// limiter implements max-in-flight admission with a bounded wait queue.
// Tokens in slots are free execution slots; tokens in queue are free
// queue positions. Both channels are pre-filled, so acquisition is a
// plain receive and release a plain send — no locks on the hot path.
type limiter struct {
	slots chan struct{}
	queue chan struct{}
}

func newLimiter(maxInFlight, maxQueue int) *limiter {
	if maxQueue < 0 {
		maxQueue = 0
	}
	l := &limiter{
		slots: make(chan struct{}, maxInFlight),
		queue: make(chan struct{}, maxQueue),
	}
	for i := 0; i < maxInFlight; i++ {
		l.slots <- struct{}{}
	}
	for i := 0; i < maxQueue; i++ {
		l.queue <- struct{}{}
	}
	return l
}

// acquire obtains an execution slot, queueing if none is free. It
// returns (release, true) on admission; (nil, false) when the queue is
// full or ctx expires while waiting — both of which the caller must
// surface as load shedding.
func (l *limiter) acquire(ctx context.Context, ins *instruments) (release func(), ok bool) {
	release = func() { l.slots <- struct{}{} }
	select {
	case <-l.slots:
		return release, true
	default:
	}
	// Saturated: take a queue position or shed immediately.
	select {
	case <-l.queue:
	default:
		return nil, false
	}
	ins.queued.Add(1)
	defer func() {
		ins.queued.Add(-1)
		l.queue <- struct{}{}
	}()
	select {
	case <-l.slots:
		return release, true
	case <-ctx.Done():
		return nil, false
	}
}

// withAdmission enforces the in-flight cap. Shed responses carry 503
// with a one-second Retry-After hint so well-behaved clients back off
// instead of retry-storming.
func withAdmission(next http.Handler, cfg Config, ins *instruments) http.Handler {
	lim := newLimiter(cfg.MaxInFlight, cfg.MaxQueue)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		release, ok := lim.acquire(r.Context(), ins)
		if !ok {
			ins.shed.Inc()
			w.Header().Set("Retry-After", "1")
			Error(w, r, http.StatusServiceUnavailable, "server overloaded, retry later")
			return
		}
		defer release()
		ins.inflight.Add(1)
		defer ins.inflight.Add(-1)
		next.ServeHTTP(w, r)
	})
}

// ---- per-request deadline ----

// withDeadline installs the per-request deadline on the context. The
// deadline bounds queue wait in the admission layer beneath it and lets
// context-aware handlers abandon work the client has given up on.
func withDeadline(next http.Handler, timeout time.Duration) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ctx, cancel := context.WithTimeout(r.Context(), timeout)
		defer cancel()
		next.ServeHTTP(w, r.WithContext(ctx))
	})
}
