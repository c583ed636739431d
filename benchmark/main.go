// Command benchmark is the repo's end-to-end benchmark: five workloads
// that between them drive every layer of the H₂O-NAS reproduction — the
// supernet search in process and over the shardrpc fleet, the transformer
// loop, search-as-a-service through jobs and httpserve, and the Section
// 6.2 perf-model pipeline with an analytic search. See README.md.
//
//	bash benchmark/run.sh                                   # all five, untraced, then a report
//	bash benchmark/run.sh --trace 1                         # all five, untraced then traced
//	bash benchmark/run.sh --workload rpc_search --seed 3 --seconds 15 --trace 0
//	bash benchmark/run.sh -compare a.json b.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"sort"
)

func main() {
	workload := flag.String("workload", "", "run one workload in this process; empty runs all five, each in a child process")
	seed := flag.Uint64("seed", 1, "the workload seed: the only input of a run")
	seconds := flag.Float64("seconds", runSeconds, "length of the timed window")
	trace := flag.Int("trace", 0, "1 records spans around every layer and reports the per-layer metrics")
	scale := flag.String("scale", "full", "full or smoke (tiny sizes, for the smoke test)")
	out := flag.String("out", ".bench_build/out", "directory for traces, reports and scratch files")
	compare := flag.Bool("compare", false, "compare two reports: -compare a.json b.json")
	describe := flag.Bool("describe", false, "print BENCHMARK.json as the metric tables define it")
	flag.Parse()

	// The layers log shard handshakes and drops; the benchmark's stdout is
	// its result and its stderr its diagnostics.
	log.SetOutput(io.Discard)

	if *describe {
		os.Stdout.Write(benchmarkJSON())
		return
	}
	if *compare {
		if flag.NArg() != 2 {
			fatal("usage: -compare a.json b.json")
		}
		if err := compareReports(os.Stdout, flag.Arg(0), flag.Arg(1)); err != nil {
			fatal("%v", err)
		}
		return
	}
	o := runOpts{workload: *workload, seed: *seed, seconds: *seconds, trace: *trace != 0, smoke: *scale == "smoke", out: *out}
	if *scale != "full" && *scale != "smoke" {
		fatal("unknown -scale %q (want full or smoke)", *scale)
	}
	if o.workload == "" {
		if err := runAll(o); err != nil {
			fatal("%v", err)
		}
		return
	}
	res, err := runWorkload(o)
	if err != nil {
		fatal("%s: %v", o.workload, err)
	}
	printResult(os.Stdout, o, res)
	if err := writeRecord(o, res); err != nil {
		fatal("%v", err)
	}
	// The last line of standard output is the run's result.
	line, err := json.Marshal(res.wire(o.trace))
	if err != nil {
		fatal("%v", err)
	}
	fmt.Println(string(line))
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
	os.Exit(1)
}

// wireResult is the last-line JSON object: exactly these keys.
type wireResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]wireMetric `json:"metrics"`
}

type wireMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (res *result) wire(traced bool) wireResult {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	w := wireResult{Correct: res.Correct, Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]wireMetric{}}
	for _, d := range defs {
		w.Metrics[d.Name] = wireMetric{Value: res.Metrics[d.Name], Unit: d.Unit}
	}
	return w
}

// printResult prints every metric by name with its unit, the sample
// counts behind them and the outcome of the correctness checks.
func printResult(w io.Writer, o runOpts, res *result) {
	kind, defs := "end-to-end (untraced)", endToEnd
	if o.trace {
		kind, defs = "per-layer (traced)", perLayer
	}
	op := ""
	for _, wd := range workloadDefs {
		if wd.Name == o.workload {
			op = wd.Op
		}
	}
	fmt.Fprintf(w, "== %s  seed %d  %.0fs  %s  op = %s ==\n", o.workload, o.seed, o.seconds, kind, op)
	for _, d := range defs {
		if !o.trace {
			fmt.Fprintf(w, "  %-36s %14.4f %s\n", d.Name, res.Metrics[d.Name], d.Unit)
		} else if d.measuredOn(o.workload) {
			fmt.Fprintf(w, "  %-36s %14.4f %-9s -> %s\n", d.Name, res.Metrics[d.Name], d.Unit, d.Moves)
		}
	}
	keys := make([]string, 0, len(res.Samples))
	for k := range res.Samples {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Fprint(w, "  samples:")
	for _, k := range keys {
		fmt.Fprintf(w, " %s=%d", k, res.Samples[k])
	}
	fmt.Fprintf(w, "\n  checks: attempted %d, failed %d (failed_share %.4f)\n", res.Attempted, res.Failed, ratio(float64(res.Failed), float64(res.Attempted)))
	for _, p := range res.Problems {
		fmt.Fprintf(w, "  FAILED: %s\n", p)
	}
	if len(res.Digests) > 0 {
		fmt.Fprintf(w, "  trajectory_digest (round 0): %s\n", res.Digests[0])
	}
	if o.trace {
		verdict := "ok"
		if res.Unresolved {
			verdict = "UNRESOLVED — tracing moved op_ms_p50 by more than 10 % or changed a digest; do not trust the per-layer numbers"
		}
		fmt.Fprintf(w, "  trace: %s (%s)\n", res.TracePath, verdict)
	}
}
