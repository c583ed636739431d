// Package httpserve is the production-hardening layer for the system's
// HTTP surfaces: a reusable middleware stack (panic recovery, request
// IDs, admission control with bounded queueing and load shedding,
// per-request deadlines, structured JSON errors) plus a managed
// http.Server with sane read/write/idle timeouts, a liveness/readiness
// split, and graceful drain on shutdown.
//
// The design follows the overload-control playbook of hyperscale serving
// stacks ("The Tail at Scale", SRE load-shedding): a saturated server
// must degrade by *rejecting* excess work quickly (503 + Retry-After)
// rather than queueing unboundedly until every request misses its
// deadline, and a terminating server must flip readiness first so load
// balancers stop routing to it, then drain in-flight requests under a
// deadline instead of dropping them.
//
// Every instrument is threaded through internal/metrics and nil-safe, so
// the stack costs almost nothing when observability is off.
package httpserve

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync/atomic"
	"time"

	"h2onas/internal/metrics"
)

// Config tunes the hardened server. The zero value is usable: every
// field has a production-sane default, applied by withDefaults.
type Config struct {
	// MaxInFlight is the number of requests allowed to execute
	// concurrently (default 64). Excess requests wait in the queue.
	MaxInFlight int
	// MaxQueue bounds how many requests may wait for an execution slot
	// (default 128; negative = no queue, shed as soon as the in-flight
	// cap is hit). When the queue is full, requests are shed immediately
	// with 503 + Retry-After.
	MaxQueue int
	// RequestTimeout is the per-request deadline installed on the
	// request context (default 30s). It bounds queue wait — a request
	// whose deadline expires while queued is shed — and is visible to
	// handlers via r.Context().
	RequestTimeout time.Duration
	// DrainTimeout bounds graceful shutdown: after readiness flips
	// false, in-flight requests get this long to complete before the
	// server gives up (default 15s).
	DrainTimeout time.Duration

	// OnDrain, if set, runs after the HTTP side of a drain completes —
	// in-flight requests finished or the deadline passed — and before Run
	// returns. It is the seam for subsystems behind the server (e.g. the
	// job orchestrator) to checkpoint and park their own work; it also
	// runs when the listener dies on its own, so background work is
	// parked on every exit path.
	OnDrain func()

	// Metrics receives the stack's instruments (nil = no-op):
	// http_requests_total, http_request_errors_total, http_panics_total,
	// http_shed_total, http_inflight_requests, http_queue_depth,
	// http_request_seconds.
	Metrics *metrics.Registry

	// Logf logs server lifecycle events and recovered panics
	// (nil = silent).
	Logf func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 64
	}
	if c.MaxQueue < 0 {
		c.MaxQueue = -1 // no queue; withDefaults is idempotent
	} else if c.MaxQueue == 0 {
		c.MaxQueue = 128
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 30 * time.Second
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 15 * time.Second
	}
	return c
}

func (c Config) logf(format string, args ...any) {
	if c.Logf != nil {
		c.Logf(format, args...)
	}
}

// Health is the liveness/readiness split. Liveness answers "is the
// process up" (always yes while it can serve at all); readiness answers
// "should load balancers route here" and flips false at the start of a
// drain.
type Health struct{ ready atomic.Bool }

// NewHealth returns a Health that is not yet ready.
func NewHealth() *Health { return &Health{} }

// SetReady flips the readiness state.
func (h *Health) SetReady(ready bool) { h.ready.Store(ready) }

// LivenessHandler always answers 200: the process is up.
func (h *Health) LivenessHandler() http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	}
}

// ReadinessHandler answers 200 while ready and 503 while draining (or
// before startup completes), so load balancers stop routing before the
// listener closes.
func (h *Health) ReadinessHandler() http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if h.ready.Load() {
			fmt.Fprintln(w, "ready")
			return
		}
		http.Error(w, "draining", http.StatusServiceUnavailable)
	}
}

// Server is a hardened http.Server: the given handler wrapped in the
// middleware stack, health endpoints that bypass admission control, and
// a Run loop with graceful drain.
type Server struct {
	cfg     Config
	health  *Health
	handler http.Handler
	srv     *http.Server
	addr    atomic.Value // string, set once the listener is bound
}

// New wraps handler in the hardening stack and prepares a server for
// addr. The returned server registers /healthz (liveness) and /readyz
// (readiness) itself, outside admission control: a saturated server must
// still answer probes. /metrics-style observability endpoints in the
// caller's handler do go through the stack.
func New(addr string, handler http.Handler, cfg Config) *Server {
	cfg = cfg.withDefaults()
	health := NewHealth()
	ins := newInstruments(cfg.Metrics)

	hardened := Chain(handler, cfg, ins)

	root := http.NewServeMux()
	root.Handle("/healthz", health.LivenessHandler())
	root.Handle("/readyz", health.ReadinessHandler())
	root.Handle("/", hardened)

	// Probes still get recovery and request IDs, just not admission.
	wrapped := withRequestID(withRecovery(root, cfg, ins), ins)

	return &Server{
		cfg:     cfg,
		health:  health,
		handler: wrapped,
		srv: &http.Server{
			Addr:    addr,
			Handler: wrapped,
			// A slow or stalled client cannot hold a connection open forever.
			ReadTimeout:  10 * time.Second,
			WriteTimeout: 30 * time.Second,
			IdleTimeout:  120 * time.Second,
		},
	}
}

// Handler returns the fully wrapped root handler — the exact handler the
// listener serves — for in-process (httptest) exercising.
func (s *Server) Handler() http.Handler { return s.handler }

// Health returns the server's readiness control.
func (s *Server) Health() *Health { return s.health }

// Addr returns the bound listen address once Run has opened the
// listener ("" before that) — useful with ":0".
func (s *Server) Addr() string {
	if v := s.addr.Load(); v != nil {
		return v.(string)
	}
	return ""
}

// Run serves until ctx is cancelled, then drains gracefully: readiness
// flips false first, then in-flight requests get DrainTimeout to finish
// while new connections are refused. A clean shutdown — including the
// listener closing with http.ErrServerClosed — returns nil.
func (s *Server) Run(ctx context.Context) error {
	ln, err := net.Listen("tcp", s.srv.Addr)
	if err != nil {
		return fmt.Errorf("httpserve: listen %s: %w", s.srv.Addr, err)
	}
	s.addr.Store(ln.Addr().String())
	s.health.SetReady(true)
	s.cfg.logf("httpserve: serving on %s", ln.Addr())

	serveErr := make(chan error, 1)
	go func() { serveErr <- s.srv.Serve(ln) }()

	select {
	case err := <-serveErr:
		// The listener died on its own (port stolen, fd exhaustion…).
		s.health.SetReady(false)
		s.runOnDrain()
		if errors.Is(err, http.ErrServerClosed) {
			return nil
		}
		return err
	case <-ctx.Done():
	}

	// Drain: stop advertising, then shut down with a deadline.
	s.health.SetReady(false)
	s.cfg.logf("httpserve: draining (deadline %v)", s.cfg.DrainTimeout)
	drainCtx, cancel := context.WithTimeout(context.Background(), s.cfg.DrainTimeout)
	defer cancel()
	err = s.srv.Shutdown(drainCtx)
	if serr := <-serveErr; serr != nil && !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	// The hook runs even when the HTTP drain timed out: parking
	// background work matters most on messy exits.
	s.runOnDrain()
	if err != nil {
		return fmt.Errorf("httpserve: drain: %w", err)
	}
	s.cfg.logf("httpserve: drained cleanly")
	return nil
}

// runOnDrain invokes the caller's drain hook, if any.
func (s *Server) runOnDrain() {
	if s.cfg.OnDrain == nil {
		return
	}
	s.cfg.logf("httpserve: running drain hook")
	s.cfg.OnDrain()
	s.cfg.logf("httpserve: drain hook done")
}
