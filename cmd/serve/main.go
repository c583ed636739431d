// Command serve analyses a model's serving behaviour under load: the
// latency/throughput trade-off across batch sizes and query rates, and the
// maximum sustainable QPS under a P99 latency target — the paper's serving
// objective ("serving throughput under P99 target latency").
//
// Usage:
//
//	serve -model efficientnet-b5 -chip tpuv4i -p99 10ms
//	serve -model dlrm -p99 2ms
//	serve -model dlrm -listen :8080     # HTTP mode with /metrics
//
// With -listen, serve stays up as a production-hardened HTTP server
// (internal/httpserve): /simulate runs simulations on demand, /metrics
// exposes the process's instruments in Prometheus text format (or JSON
// with ?format=json / Accept: application/json), /healthz answers
// liveness probes and /readyz readiness. The stack recovers handler
// panics (500 + http_panics_total), sheds load with 503 + Retry-After
// once -max-inflight plus the -max-queue wait queue are saturated, and
// drains gracefully on SIGINT/SIGTERM: readiness flips false first, then
// in-flight requests get -drain-timeout to finish before the process
// exits 0.
//
// With -jobs-dir (HTTP mode only), serve additionally hosts the durable
// job API (internal/jobs): POST /jobs submits a search, GET /jobs/{id}
// polls it, DELETE cancels it, and artifacts are served once it is done.
// Job state is journaled under the directory, so a crash or restart on
// the same -jobs-dir resumes interrupted jobs from their newest
// checkpoint; a graceful drain parks running jobs with a final snapshot
// before the process exits.
//
// With -pprof (HTTP mode only, off by default), the net/http/pprof
// profiling handlers are mounted under /debug/pprof/ — see
// docs/SERVING.md before enabling this outside a trusted network.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	netpprof "net/http/pprof"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"text/tabwriter"
	"time"

	"h2onas/internal/httpserve"
	"h2onas/internal/hwsim"
	"h2onas/internal/jobs"
	"h2onas/internal/metrics"
	"h2onas/internal/models"
)

// maxSimulateBatch bounds /simulate's batch parameter: graph size (and
// per-request memory/CPU) grows with batch, so an absurd value would let
// one request build an arbitrarily large graph.
const maxSimulateBatch = 4096

func main() {
	model := flag.String("model", "efficientnet-b5", "model to serve (see cmd/inspect -list)")
	chipName := flag.String("chip", "tpuv4i", "chip: tpuv4, tpuv4i, v100")
	p99 := flag.Duration("p99", 10*time.Millisecond, "P99 latency target (must be > 0)")
	listen := flag.String("listen", "", "serve HTTP on this address (e.g. :8080) with /metrics, /simulate, /healthz and /readyz")
	maxInFlight := flag.Int("max-inflight", 64, "HTTP mode: max concurrently executing requests")
	maxQueue := flag.Int("max-queue", 128, "HTTP mode: max requests waiting for a slot before shedding (negative disables queueing)")
	requestTimeout := flag.Duration("request-timeout", 30*time.Second, "HTTP mode: per-request deadline, including queue wait")
	drainTimeout := flag.Duration("drain-timeout", 15*time.Second, "HTTP mode: graceful-shutdown drain deadline")
	jobsDir := flag.String("jobs-dir", "", "HTTP mode: enable the durable job API, journaling state under this directory")
	jobsWorkers := flag.Int("jobs-workers", 2, "job API: searches run concurrently")
	jobsQuota := flag.Int("jobs-quota", 8, "job API: per-tenant cap on queued plus running jobs")
	jobsMaxQueue := flag.Int("jobs-max-queue", 64, "job API: global cap on queued jobs")
	jobsCkptEvery := flag.Int("jobs-checkpoint-every", 25, "job API: snapshot each running search every N steps")
	pprofEnabled := flag.Bool("pprof", false, "HTTP mode: mount net/http/pprof profiling handlers under /debug/pprof/ (off by default; enable only on trusted networks)")
	flag.Parse()

	if *p99 <= 0 {
		usageError("-p99 must be a positive duration, got %v", *p99)
	}
	if *maxInFlight <= 0 {
		usageError("-max-inflight must be positive, got %d", *maxInFlight)
	}
	if *requestTimeout <= 0 {
		usageError("-request-timeout must be positive, got %v", *requestTimeout)
	}
	if *drainTimeout <= 0 {
		usageError("-drain-timeout must be positive, got %v", *drainTimeout)
	}
	if *jobsDir != "" {
		if *listen == "" {
			usageError("-jobs-dir requires -listen (the job API is an HTTP surface)")
		}
		if *jobsWorkers <= 0 || *jobsQuota <= 0 || *jobsMaxQueue <= 0 || *jobsCkptEvery <= 0 {
			usageError("job API limits must be positive (workers %d, quota %d, max-queue %d, checkpoint-every %d)",
				*jobsWorkers, *jobsQuota, *jobsMaxQueue, *jobsCkptEvery)
		}
	}

	reg := metrics.New()
	hwsim.SetMetrics(reg)

	chip, ok := hwsim.ChipByName(*chipName)
	if !ok {
		usageError("unknown chip %q (want tpuv4, tpuv4i or v100)", *chipName)
	}

	if *listen != "" {
		cfg := httpserve.Config{
			MaxInFlight:    *maxInFlight,
			MaxQueue:       *maxQueue,
			RequestTimeout: *requestTimeout,
			DrainTimeout:   *drainTimeout,
			Metrics:        reg,
			Logf:           log.Printf,
		}
		var svc *jobs.Service
		if *jobsDir != "" {
			var err error
			svc, err = jobs.Open(*jobsDir, jobs.Options{
				Workers:         *jobsWorkers,
				TenantQuota:     *jobsQuota,
				MaxQueue:        *jobsMaxQueue,
				CheckpointEvery: *jobsCkptEvery,
				Metrics:         reg,
				Logf:            log.Printf,
			})
			if err != nil {
				fatalf("job service: %v", err)
			}
			// The HTTP drain finishes first (in-flight requests answered),
			// then the hook checkpoints and parks running jobs so a restart
			// on the same -jobs-dir resumes them.
			cfg.OnDrain = svc.Drain
		}
		if *pprofEnabled {
			log.Printf("pprof: profiling handlers mounted at /debug/pprof/")
		}
		srv := newServer(*listen, reg, chip, svc, cfg, *pprofEnabled)
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
		defer stop()
		// A graceful shutdown (including http.ErrServerClosed from the
		// listener) returns nil from Run and must exit 0.
		if err := srv.Run(ctx); err != nil {
			fatalf("http server: %v", err)
		}
		return
	}

	build, err := models.Lookup(*model)
	if err != nil {
		usageError("%v", err)
	}

	fmt.Printf("%s on %s, P99 target %v\n\n", *model, chip.Name, *p99)
	capacityTable(os.Stdout, build, chip, *p99)

	bestQPS, bestBatch := hwsim.MaxQPSUnderP99(build, chip, p99.Seconds())
	if bestQPS == 0 {
		fmt.Printf("\nno configuration meets a %v P99 on %s\n", *p99, chip.Name)
		return
	}
	fmt.Printf("\nbest configuration: batch %d sustaining %.0f QPS within the %v P99 target\n",
		bestBatch, bestQPS, *p99)
}

// capacityTable prints, for a sample of batch sizes, the unloaded service
// time and tail, the capacity, and the max rate within the P99 target —
// the per-batch search MaxQPSUnderP99 maximizes over.
func capacityTable(w io.Writer, build hwsim.GraphBuilder, chip hwsim.Chip, p99 time.Duration) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "batch\tservice (ms)\tidle P99 (ms)\tcapacity (QPS)\tmax QPS @ target")
	for batch := 1; batch <= 64; batch *= 4 {
		r := hwsim.Simulate(build(batch), chip, hwsim.Options{Mode: hwsim.Inference})
		capacity := float64(batch) / r.StepTime
		idle := hwsim.ServeUnderLoad(build, chip, batch, capacity*0.01)
		fmt.Fprintf(tw, "%d\t%.2f\t%.2f\t%.0f\t%.0f\n",
			batch, r.StepTime*1e3, idle.P99Latency*1e3, capacity,
			hwsim.MaxQPSAtBatch(build, chip, batch, p99.Seconds()))
	}
	tw.Flush()
}

// newMux builds the service routes. Health endpoints are not here: the
// hardened server registers /healthz and /readyz itself, outside
// admission control, so probes keep answering while the server sheds.
// A non-nil jobs service mounts the job API alongside /simulate. The
// pprof handlers are opt-in (-pprof): they expose goroutine stacks and
// heap contents, so the default surface never serves them.
func newMux(reg *metrics.Registry, defaultChip hwsim.Chip, svc *jobs.Service, withPprof bool) *http.ServeMux {
	simLatency := reg.Histogram("http_simulate_seconds")

	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		wantJSON := r.URL.Query().Get("format") == "json" ||
			strings.Contains(r.Header.Get("Accept"), "application/json")
		if wantJSON {
			w.Header().Set("Content-Type", "application/json")
			reg.WriteJSON(w)
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		reg.WritePrometheus(w)
	})
	mux.HandleFunc("/simulate", func(w http.ResponseWriter, r *http.Request) {
		defer simLatency.Start().End()

		q := r.URL.Query()
		chip := defaultChip
		if name := q.Get("chip"); name != "" {
			c, ok := hwsim.ChipByName(name)
			if !ok {
				httpserve.Error(w, r, http.StatusBadRequest, fmt.Sprintf("unknown chip %q", name))
				return
			}
			chip = c
		}
		modelName := q.Get("model")
		if modelName == "" {
			httpserve.Error(w, r, http.StatusBadRequest, "missing model parameter")
			return
		}
		build, err := models.Lookup(modelName)
		if err != nil {
			httpserve.Error(w, r, http.StatusBadRequest, err.Error())
			return
		}
		batch := 1
		if s := q.Get("batch"); s != "" {
			batch, err = strconv.Atoi(s)
			if err != nil || batch < 1 {
				httpserve.Error(w, r, http.StatusBadRequest, "batch must be a positive integer")
				return
			}
			if batch > maxSimulateBatch {
				httpserve.Error(w, r, http.StatusBadRequest,
					fmt.Sprintf("batch %d exceeds the maximum of %d", batch, maxSimulateBatch))
				return
			}
		}
		res := hwsim.Simulate(build(batch), chip, hwsim.Options{Mode: hwsim.Inference})
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, `{"model":%q,"chip":%q,"batch":%d,"step_time_s":%g,"power_w":%g,"energy_j":%g,"qps":%g}`+"\n",
			modelName, chip.Name, batch, res.StepTime, res.Power, res.Energy,
			float64(batch)/res.StepTime)
	})
	if svc != nil {
		svc.Mount(mux)
	}
	if withPprof {
		mux.HandleFunc("/debug/pprof/", netpprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", netpprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", netpprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", netpprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", netpprof.Trace)
	}
	return mux
}

// newServer wraps the service routes in the hardening stack.
func newServer(addr string, reg *metrics.Registry, defaultChip hwsim.Chip, svc *jobs.Service, cfg httpserve.Config, withPprof bool) *httpserve.Server {
	return httpserve.New(addr, newMux(reg, defaultChip, svc, withPprof), cfg)
}

// usageError reports a flag/argument problem the way flag itself does:
// message plus usage, exit code 2.
func usageError(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "serve: "+format+"\n", args...)
	flag.Usage()
	os.Exit(2)
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(1)
}
