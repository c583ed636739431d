package main

import "encoding/json"

// metricDef declares one metric of the benchmark. BENCHMARK.json at the
// repo root repeats name, unit, better (and bound) and must agree with
// these tables; the smoke test checks that it does.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the median a metric may worsen
	// A per-layer metric is named "<repo package>.<what>". Moves names the
	// end-to-end metric @ workload it should move; on every other workload
	// the prediction is no change.
	Moves string
	// On lists the workloads whose traced run measures the metric. The
	// others report 0: the layer does no work there.
	On []string
}

const (
	wDLRM     = "dlrm_search"
	wViT      = "vit_search"
	wRPC      = "rpc_search"
	wServe    = "serve_jobs"
	wAnalytic = "analytic_perfmodel"
)

type workloadDef struct {
	Name string
	Why  string
	Op   string // what one op is
}

var workloadDefs = []workloadDef{
	{wDLRM, "The headline flow: in-process 8-shard DLRM supernet search; tensor, nn, supernet, spine and datapipe do the work, shardrpc/jobs/perfmodel none.", "search step"},
	{wViT, "Same engine through the forked transformer loop (attention, layer-norm, no prefetch, no transport seam): a DLRM-only gain that costs this path shows here.", "search step"},
	{wRPC, "Same DLRM search over 2 loopback shardrpc workers: wire encode/decode and weight sync dominate, so a transport gain shows here and not on dlrm_search.", "search step"},
	{wServe, "Closed loop of 2 tenants submitting short jobs over HTTP: jobs journal, queue, httpserve and checkpoint fsync are half of each op; many cold starts.", "job"},
	{wAnalytic, "Section 6.2 pipeline (hwsim samples, perfmodel pretrain/fine-tune) then an analytic search: hwsim, space, perfmodel, controller work; dense eager nn path.", "analytic search step"},
}

// endToEnd are the metrics every workload reports from its untraced run.
// "op" is the workload's unit of work (workloadDefs.Op).
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "op_ms_p50", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "op_ms_p90", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "start_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "allocs_per_op", Unit: "count", Better: "lower", Bound: 0.10},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.25},
}

var (
	onSearch   = []string{wDLRM, wViT, wRPC}
	onCore     = []string{wDLRM, wRPC}
	onAllLoops = []string{wDLRM, wViT, wRPC, wAnalytic}
)

// perLayer are the metrics of the traced run, grouped by layer.
var perLayer = []metricDef{
	// tensor: isolated kernels at the shapes each workload drives.
	{Name: "tensor.matmul_dlrm_gflops", Unit: "GFLOP/s", Better: "higher", Moves: "op_ms_p50 @ dlrm_search", On: onCore},
	{Name: "tensor.matmul_transa_dlrm_gflops", Unit: "GFLOP/s", Better: "higher", Moves: "op_ms_p50 @ dlrm_search", On: onCore},
	{Name: "tensor.matmul_transb_dlrm_gflops", Unit: "GFLOP/s", Better: "higher", Moves: "op_ms_p50 @ dlrm_search", On: onCore},
	{Name: "tensor.matmul_vit_gflops", Unit: "GFLOP/s", Better: "higher", Moves: "op_ms_p50 @ vit_search", On: []string{wViT}},
	{Name: "tensor.matmul_dense_gflops", Unit: "GFLOP/s", Better: "higher", Moves: "start_ms @ analytic_perfmodel", On: []string{wAnalytic}},
	{Name: "tensor.axpy_gbps", Unit: "GB/s", Better: "higher", Moves: "op_ms_p50 @ dlrm_search, vit_search", On: onSearch},
	{Name: "tensor.roofline_fraction_dlrm", Unit: "fraction", Better: "higher", Moves: "op_ms_p50 @ dlrm_search", On: onCore},
	{Name: "tensor.roofline_fraction_vit", Unit: "fraction", Better: "higher", Moves: "op_ms_p50 @ vit_search", On: []string{wViT}},
	{Name: "tensor.matrix_allocs_per_step", Unit: "count", Better: "lower", Moves: "allocs_per_op @ dlrm_search, vit_search, rpc_search", On: onSearch},

	// nn: isolated layer passes at the supernets' maximal shapes.
	{Name: "nn.lowrank_fwd_us", Unit: "us", Better: "lower", Moves: "op_ms_p50 @ dlrm_search", On: onCore},
	{Name: "nn.lowrank_bwd_us", Unit: "us", Better: "lower", Moves: "op_ms_p50 @ dlrm_search", On: onCore},
	{Name: "nn.masked_fwd_us", Unit: "us", Better: "lower", Moves: "op_ms_p50 @ dlrm_search", On: onCore},
	{Name: "nn.masked_bwd_us", Unit: "us", Better: "lower", Moves: "op_ms_p50 @ dlrm_search", On: onCore},
	{Name: "nn.embedding_fwd_us", Unit: "us", Better: "lower", Moves: "op_ms_p50 @ dlrm_search", On: onCore},
	{Name: "nn.embedding_bwd_us", Unit: "us", Better: "lower", Moves: "op_ms_p50 @ dlrm_search", On: onCore},
	{Name: "nn.attention_fwd_us", Unit: "us", Better: "lower", Moves: "op_ms_p50 @ vit_search", On: []string{wViT}},
	{Name: "nn.attention_bwd_us", Unit: "us", Better: "lower", Moves: "op_ms_p50 @ vit_search", On: []string{wViT}},
	{Name: "nn.spine_reduce_ms", Unit: "ms", Better: "lower", Moves: "ops_per_s @ dlrm_search", On: onCore},
	{Name: "nn.spine_clipstep_ms", Unit: "ms", Better: "lower", Moves: "ops_per_s @ dlrm_search", On: onCore},
	{Name: "nn.dense_train_step_us", Unit: "us", Better: "lower", Moves: "start_ms @ analytic_perfmodel", On: []string{wAnalytic}},

	// supernet: per-shard spans inside the wrapper transport, plus cold-start costs.
	{Name: "supernet.forward_ms_p50", Unit: "ms", Better: "lower", Moves: "op_ms_p50 @ dlrm_search", On: onCore},
	{Name: "supernet.backward_ms_p50", Unit: "ms", Better: "lower", Moves: "op_ms_p50 @ dlrm_search", On: onCore},
	{Name: "supernet.new_ms", Unit: "ms", Better: "lower", Moves: "start_ms @ dlrm_search; op_ms_p50 @ serve_jobs", On: []string{wDLRM, wRPC, wServe}},
	{Name: "supernet.quality_ms", Unit: "ms", Better: "lower", Moves: "op_ms_p50 @ serve_jobs", On: []string{wDLRM, wRPC, wServe}},

	{Name: "vitnet.forward_ms_p50", Unit: "ms", Better: "lower", Moves: "op_ms_p50 @ vit_search", On: []string{wViT}},
	{Name: "vitnet.backward_ms_p50", Unit: "ms", Better: "lower", Moves: "op_ms_p50 @ vit_search", On: []string{wViT}},

	{Name: "datapipe.next_batch_us", Unit: "us", Better: "lower", Moves: "ops_per_s @ dlrm_search", On: onCore},
	{Name: "datapipe.seq_next_batch_us", Unit: "us", Better: "lower", Moves: "op_ms_p50 @ vit_search", On: []string{wViT}},
	{Name: "datapipe.examples_per_s", Unit: "1/s", Better: "higher", Moves: "ops_per_s @ dlrm_search", On: onCore},
	{Name: "datapipe.pipeline_next_wait_us", Unit: "us", Better: "lower", Moves: "ops_per_s @ dlrm_search", On: onCore},

	// core: the step ledger from the Strategy/PerfFunc/ShardTransport/Progress seams.
	{Name: "core.fanout_ms_p50", Unit: "ms", Better: "lower", Moves: "op_ms_p50 @ dlrm_search, vit_search, rpc_search", On: onSearch},
	{Name: "core.shard_skew_ms_p50", Unit: "ms", Better: "lower", Moves: "op_ms_p50 @ dlrm_search", On: []string{wDLRM}},
	{Name: "core.strategy_sample_us", Unit: "us", Better: "lower", Moves: "op_ms_p50 @ dlrm_search", On: onSearch},
	{Name: "core.strategy_update_us", Unit: "us", Better: "lower", Moves: "op_ms_p50 @ dlrm_search", On: onSearch},
	{Name: "core.perf_eval_us", Unit: "us", Better: "lower", Moves: "op_ms_p50 @ dlrm_search; ops_per_s @ analytic_perfmodel", On: onAllLoops},
	{Name: "core.perf_cache_hit_ratio", Unit: "fraction", Better: "higher", Moves: "op_ms_p50 @ dlrm_search", On: onSearch},
	{Name: "core.coordinator_other_ms_p50", Unit: "ms", Better: "lower", Moves: "op_ms_p50 @ dlrm_search; ops_per_s @ analytic_perfmodel", On: onAllLoops},
	{Name: "core.unattributed_share", Unit: "fraction", Better: "lower", Moves: "-", On: []string{wDLRM, wViT, wRPC, wServe, wAnalytic}},
	{Name: "core.warmup_step_ms_p50", Unit: "ms", Better: "lower", Moves: "start_ms @ dlrm_search, vit_search, rpc_search", On: onSearch},
	{Name: "core.step_ms_p99", Unit: "ms", Better: "lower", Moves: "op_ms_p90 @ dlrm_search, vit_search, rpc_search", On: onSearch},
	{Name: "core.cores_busy", Unit: "cores", Better: "higher", Moves: "ops_per_s @ every workload", On: []string{wDLRM, wViT, wRPC, wServe, wAnalytic}},
	{Name: "core.cpu_s", Unit: "s", Better: "lower", Moves: "ops_per_s @ every workload", On: []string{wDLRM, wViT, wRPC, wServe, wAnalytic}},
	{Name: "core.alloc_kb_per_step", Unit: "KB", Better: "lower", Moves: "allocs_per_op @ every workload", On: []string{wDLRM, wViT, wRPC, wServe, wAnalytic}},

	{Name: "shardrpc.runstep_ms_p50", Unit: "ms", Better: "lower", Moves: "op_ms_p50 @ rpc_search", On: []string{wRPC}},
	{Name: "shardrpc.pushweights_us_p50", Unit: "us", Better: "lower", Moves: "op_ms_p50 @ rpc_search", On: []string{wRPC}},
	{Name: "shardrpc.wire_overhead_ms_p50", Unit: "ms", Better: "lower", Moves: "op_ms_p50 @ rpc_search", On: []string{wRPC}},
	{Name: "shardrpc.bind_ms", Unit: "ms", Better: "lower", Moves: "start_ms @ rpc_search", On: []string{wRPC}},
	{Name: "shardrpc.wire_kb_tx_per_step", Unit: "KB", Better: "lower", Moves: "op_ms_p50 @ rpc_search", On: []string{wRPC}},
	{Name: "shardrpc.wire_kb_rx_per_step", Unit: "KB", Better: "lower", Moves: "op_ms_p50 @ rpc_search", On: []string{wRPC}},
	{Name: "shardrpc.shards_dropped", Unit: "count", Better: "lower", Moves: "failed @ rpc_search", On: []string{wRPC}},

	{Name: "checkpoint.encode_ms", Unit: "ms", Better: "lower", Moves: "op_ms_p50 @ serve_jobs", On: []string{wServe}},
	{Name: "checkpoint.decode_ms", Unit: "ms", Better: "lower", Moves: "op_ms_p50 @ serve_jobs", On: []string{wServe}},
	{Name: "checkpoint.save_ms", Unit: "ms", Better: "lower", Moves: "op_ms_p50 @ serve_jobs", On: []string{wServe}},
	{Name: "checkpoint.snapshot_kb", Unit: "KB", Better: "lower", Moves: "op_ms_p50 @ serve_jobs", On: []string{wServe}},

	{Name: "jobs.submit_direct_us", Unit: "us", Better: "lower", Moves: "op_ms_p50 @ serve_jobs", On: []string{wServe}},
	{Name: "jobs.journal_put_us", Unit: "us", Better: "lower", Moves: "op_ms_p50 @ serve_jobs", On: []string{wServe}},
	{Name: "jobs.queue_wait_ms_p50", Unit: "ms", Better: "lower", Moves: "start_ms @ serve_jobs", On: []string{wServe}},
	{Name: "jobs.first_progress_ms_p50", Unit: "ms", Better: "lower", Moves: "start_ms @ serve_jobs", On: []string{wServe}},
	{Name: "jobs.run_s_p50", Unit: "s", Better: "lower", Moves: "op_ms_p50 @ serve_jobs", On: []string{wServe}},
	{Name: "jobs.artifact_ms_p50", Unit: "ms", Better: "lower", Moves: "op_ms_p50 @ serve_jobs", On: []string{wServe}},
	{Name: "jobs.outside_search_share", Unit: "fraction", Better: "lower", Moves: "ops_per_s @ serve_jobs", On: []string{wServe}},

	{Name: "httpserve.submit_ms_p50", Unit: "ms", Better: "lower", Moves: "op_ms_p50 @ serve_jobs", On: []string{wServe}},
	{Name: "httpserve.status_us_p50", Unit: "us", Better: "lower", Moves: "op_ms_p50 @ serve_jobs", On: []string{wServe}},
	{Name: "httpserve.overhead_us", Unit: "us", Better: "lower", Moves: "op_ms_p50 @ serve_jobs", On: []string{wServe}},
	{Name: "httpserve.shed_total", Unit: "count", Better: "lower", Moves: "failed @ serve_jobs", On: []string{wServe}},

	{Name: "hwsim.simulate_dlrm_us", Unit: "us", Better: "lower", Moves: "start_ms @ analytic_perfmodel", On: []string{wAnalytic}},
	{Name: "hwsim.simulate_vit_us", Unit: "us", Better: "lower", Moves: "ops_per_s @ analytic_perfmodel", On: []string{wAnalytic}},
	{Name: "hwsim.samples_per_s", Unit: "1/s", Better: "higher", Moves: "start_ms @ analytic_perfmodel", On: []string{wAnalytic}},
	{Name: "space.graph_build_us", Unit: "us", Better: "lower", Moves: "ops_per_s @ analytic_perfmodel", On: []string{wAnalytic}},

	{Name: "perfmodel.pretrain_samples_per_s", Unit: "1/s", Better: "higher", Moves: "start_ms @ analytic_perfmodel", On: []string{wAnalytic}},
	{Name: "perfmodel.finetune_ms", Unit: "ms", Better: "lower", Moves: "start_ms @ analytic_perfmodel", On: []string{wAnalytic}},
	{Name: "perfmodel.predict_us", Unit: "us", Better: "lower", Moves: "start_ms @ analytic_perfmodel", On: []string{wAnalytic}},
	{Name: "perfmodel.nrmse_finetuned", Unit: "fraction", Better: "lower", Moves: "-", On: []string{wAnalytic}},

	{Name: "trace.overhead_share", Unit: "fraction", Better: "lower", Moves: "-", On: []string{wDLRM, wViT, wRPC, wServe, wAnalytic}},
}

// measuredOn reports whether workload w measures per-layer metric d.
func (d metricDef) measuredOn(w string) bool {
	for _, on := range d.On {
		if on == w {
			return true
		}
	}
	return false
}

// runSeconds is the window the driver measures for: BENCHMARK.json's
// run_seconds.
const runSeconds = 15

// benchmarkJSON renders BENCHMARK.json from the tables above, so the file
// at the repo root and the program cannot drift apart.
func benchmarkJSON() []byte {
	type workload struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound,omitempty"`
	}
	doc := struct {
		Command    []string   `json:"command"`
		Paths      []string   `json:"paths"`
		RunSeconds int        `json:"run_seconds"`
		Workloads  []workload `json:"workloads"`
		EndToEnd   []metric   `json:"end_to_end"`
		PerLayer   []metric   `json:"per_layer"`
	}{Command: []string{"bash", "benchmark/run.sh"}, Paths: []string{"benchmark"}, RunSeconds: runSeconds}
	for _, w := range workloadDefs {
		doc.Workloads = append(doc.Workloads, workload{w.Name, w.Why})
	}
	for _, d := range endToEnd {
		bound := d.Bound
		doc.EndToEnd = append(doc.EndToEnd, metric{d.Name, d.Unit, d.Better, &bound})
	}
	for _, d := range perLayer {
		doc.PerLayer = append(doc.PerLayer, metric{d.Name, d.Unit, d.Better, nil})
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		panic(err) // a struct of strings and numbers always encodes
	}
	return append(data, '\n')
}
