package core_test

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"runtime"
	"slices"
	"strings"
	"testing"

	"h2onas/internal/checkpoint"
	"h2onas/internal/controller"
	"h2onas/internal/core"
	"h2onas/internal/metrics"
	"h2onas/internal/shardrpc"
	"h2onas/internal/space"
)

// TestEngineEquivalence is the step engine's identity contract, in one
// table: the same seed walks the same trajectory bits whatever the core
// budget, the metrics registry, the transport, a crash and resume, a
// Stop or a retried shard fault. Each key is a committed golden
// configuration. Its reference runs serially (GOMAXPROCS 1, Workers 1),
// checkpointing after every step, and must match the committed trace —
// which also proves that checkpointing moves no bit. Every row then
// reruns the key under one execution mode and must reproduce the same
// trace byte for byte, FinalQuality included.
//
// Under -short each key runs its reference, a resume row, a Stop row
// and the rows its short list names, so that every row and every budget
// value runs somewhere. Without -short every row runs on every key and
// the resume row covers every snapshot. The rows that leave GOMAXPROCS
// alone run in parallel once the key's other rows are done: a
// concurrent search must not move a bit either.
func TestEngineEquivalence(t *testing.T) {
	for _, k := range equivKeys() {
		t.Run(k.name, func(t *testing.T) {
			ref := k.reference(t)
			for _, r := range equivRows {
				if r.dlrmOnly && k.name == "vit" || testing.Short() && !slices.Contains(k.short, r.name) {
					continue
				}
				t.Run(r.name, func(t *testing.T) {
					if r.procs == 0 {
						t.Parallel()
					} else {
						prev := runtime.GOMAXPROCS(r.procs)
						defer runtime.GOMAXPROCS(prev)
					}
					cfg := k.cfg
					check := r.mode(t, &cfg)
					out := mustSearch(t, &k, cfg)
					k.require(t, ref, out)
					if check != nil {
						check(out)
					}
				})
			}
			runResumeRows(t, &k, ref)
			runStopRow(t, &k, ref)
		})
	}
}

// equivKey is one committed golden configuration.
type equivKey struct {
	name, file, note string
	strategy         string // the trace's strategy field
	sp               *space.Space
	cfg              core.Config
	// search runs a fresh searcher — and a fresh strategy, which is
	// stateful — on the key's traffic seed under cfg.
	search func(t *testing.T, cfg core.Config) (*core.Outcome, error)
	// short names the equivRows that run under -short; resumeAt and
	// stopAt are the snapshot and the policy step the resume and Stop
	// rows, which always run, use there.
	short            []string
	resumeAt, stopAt int
}

const dlrmGoldenNote = "dlrm-small shards=3 steps=12 warmup=3 batch=16 seed=21 ctrl=0.1/0.9/0.001"

// goldenConfig is the run every committed trajectory was generated
// under, at the space's batch size.
func goldenConfig(batch int) core.Config {
	return core.Config{
		Shards:      3,
		Steps:       12,
		BatchSize:   batch,
		WarmupSteps: 3,
		WeightLR:    0.003,
		Controller:  controller.Config{LearningRate: 0.1, BaselineMomentum: 0.9, EntropyWeight: 1e-3},
		Seed:        21,
	}
}

func equivKeys() []equivKey {
	sp := space.NewDLRMSpace(space.SmallDLRMConfig()).Space
	dlrm := func(strategy string, mk func() core.Strategy, short []string, resumeAt, stopAt int) equivKey {
		return equivKey{
			name: "dlrm-" + strategy, file: strategy + ".json", note: dlrmGoldenNote,
			strategy: strategy, sp: sp, cfg: goldenConfig(16),
			search: func(t *testing.T, cfg core.Config) (*core.Outcome, error) {
				cfg.Strategy = mk()
				return core.DLRMSearch(t, 21, cfg)
			},
			short: short, resumeAt: resumeAt, stopAt: stopAt,
		}
	}
	return []equivKey{
		// The nil Strategy is the default path, so this golden also pins
		// that the default wiring routes through the same seam.
		dlrm("reinforce", func() core.Strategy { return nil },
			[]string{"budget-below", "metrics-live", "rpc-loopback"}, 7, 2),
		dlrm("random", func() core.Strategy { return core.NewRandomSearch(sp) },
			[]string{"budget-uneven", "transient-fault"}, 2, 5),
		dlrm("evolution", func() core.Strategy {
			return core.NewEvolution(sp, core.EvolutionOpts{Population: 8, Tournament: 4})
		}, []string{"budget-above"}, 10, 8),
		// Budget 24 = Steps(12) × policy shards(2): every evaluation of a
		// fault-free run reaches Update.
		dlrm("halving", func() core.Strategy {
			sh, err := core.NewSuccessiveHalving(sp, core.HalvingOpts{Cohort: 8, Eta: 2, Budget: 24})
			if err != nil {
				panic(err)
			}
			return sh
		}, []string{"budget-far-above"}, 15, 0),
		// The transformer history and Best were generated by the forked
		// vitnet loop that predates the shared engine; FinalQuality alone
		// was re-pinned when the engine took over the final evaluation.
		{
			name: "vit", file: "vit.json", note: "vit-small shards=3 steps=12 warmup=3 batch=8 seed=21 ctrl=0.1/0.9/0.001",
			strategy: "reinforce", sp: vitSearcher(0).VS.Space, cfg: goldenConfig(8),
			search: func(t *testing.T, cfg core.Config) (*core.Outcome, error) {
				return vitSearch(t, 21, cfg)
			},
			short: []string{"budget-uneven"}, resumeAt: 13, stopAt: 9,
		},
	}
}

// equivRef is a key's serial reference run.
type equivRef struct {
	want []byte // the committed trace
	out  *core.Outcome
	fs   *checkpoint.MemFS // one snapshot per step, 1..total
}

func (k *equivKey) reference(t *testing.T) *equivRef {
	t.Helper()
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	fs := checkpoint.NewMemFS()
	cfg := k.cfg
	cfg.Workers = 1
	cfg.CheckpointEvery, cfg.CheckpointDir, cfg.CheckpointFS = 1, "ckpt", fs
	cfg.Clock = &core.FrozenClock{}
	out, err := k.search(t, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref := &equivRef{want: core.GoldenTrace(t, k.strategy, k.note, out), out: out, fs: fs}
	core.CheckGolden(t, k.file, ref.want)
	// What the trace does not pin: the choice is a valid candidate, every
	// policy step is recorded, Best is priced and traffic was drawn.
	if err := k.sp.Validate(out.Best); err != nil {
		t.Fatalf("reference Best invalid: %v", err)
	}
	if len(out.History) != k.cfg.Steps || len(out.BestPerf) == 0 || out.BestPerf[0] <= 0 || out.ExamplesSeen <= 0 {
		t.Fatalf("reference history %d (want %d), BestPerf %v, ExamplesSeen %d", len(out.History), k.cfg.Steps, out.BestPerf, out.ExamplesSeen)
	}
	steps, err := (&checkpoint.Manager{Dir: "ckpt", FS: fs}).List()
	if err != nil {
		t.Fatal(err)
	}
	if total := k.total(); len(steps) != total || steps[0] != 1 || steps[total-1] != int64(total) {
		t.Fatalf("reference snapshots %v, want 1..%d", steps, total)
	}
	return ref
}

func (k *equivKey) total() int { return k.cfg.WarmupSteps + k.cfg.Steps }

// require fails the row unless out reproduces the key's committed trace.
func (k *equivKey) require(t *testing.T, ref *equivRef, out *core.Outcome) {
	t.Helper()
	got := core.GoldenTrace(t, k.strategy, k.note, out)
	if bytes.Equal(got, ref.want) {
		return
	}
	g, w := strings.Split(string(got), "\n"), strings.Split(string(ref.want), "\n")
	for i := range min(len(g), len(w)) {
		if g[i] != w[i] {
			t.Fatalf("trace diverged from %s at line %d:\n got: %s\nwant: %s", k.file, i+1, g[i], w[i])
		}
	}
	t.Fatalf("trace diverged from %s: %d lines, want %d", k.file, len(g), len(w))
}

// equivRow is one execution mode of a single run. mode edits a copy of
// the key's config; the run must reproduce the key's trace, and the
// check mode returns, if any, then asserts what the mode promises
// besides the bits.
type equivRow struct {
	name     string
	dlrmOnly bool
	procs    int // the GOMAXPROCS the row runs at; 0 leaves it alone
	mode     func(t *testing.T, cfg *core.Config) (check func(out *core.Outcome))
}

var equivRows = []equivRow{
	// The golden configurations run 3 shards: a budget below the shard
	// count queues shards on 2 workers and hands the sandwich replica the
	// whole budget, here time-sliced on one proc; 5 and 6 split unevenly
	// and evenly above it; 16 gives every replica 5 kernel workers on
	// any machine. The rows above the shard count run at the process's
	// GOMAXPROCS, alongside each other.
	budgetRow("budget-below", 1, 2),
	budgetRow("budget-uneven", 0, 5),
	budgetRow("budget-above", 0, 6),
	budgetRow("budget-far-above", 0, 16),
	{name: "metrics-live", mode: func(t *testing.T, cfg *core.Config) func(*core.Outcome) {
		reg := metrics.New()
		cfg.Metrics = reg
		return func(*core.Outcome) {
			if got := reg.Counter("search_steps_total").Value(); got != int64(cfg.Steps) {
				t.Fatalf("search_steps_total = %d, want %d", got, cfg.Steps)
			}
		}
	}},
	// One shard fails once: the retry succeeds after one backoff sleep,
	// the counters see one failure, one retry and no drop.
	{name: "transient-fault", mode: func(t *testing.T, cfg *core.Config) func(*core.Outcome) {
		clk, reg := &core.FrozenClock{}, metrics.New()
		cfg.Clock, cfg.Metrics = clk, reg
		failAt := cfg.WarmupSteps + 1
		cfg.ShardFault = func(step, shard, attempt int) error {
			if step == failAt && shard == 2 && attempt == 0 {
				return errors.New("injected transient shard failure")
			}
			return nil
		}
		return func(out *core.Outcome) {
			if n := clk.Sleeps(); n != 1 {
				t.Fatalf("recorded %d backoff sleeps, want 1", n)
			}
			for name, want := range map[string]int64{
				"search_shard_failures_total": 1,
				"search_shard_retries_total":  1,
				"search_shards_dropped_total": 0,
			} {
				if got := reg.Counter(name).Value(); got != want {
					t.Fatalf("%s = %d, want %d", name, got, want)
				}
			}
			requireNoDrop(t, out)
		}
	}},
	// Every shard runs behind its own loopback shardrpc worker: weights
	// ship out and gradients ship back each step. Weight sync settles
	// into deltas after one full sync per worker, with no RPC failure.
	{name: "rpc-loopback", dlrmOnly: true, mode: func(t *testing.T, cfg *core.Config) func(*core.Outcome) {
		var addrs []string
		for range cfg.Shards {
			lis, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			w := shardrpc.NewWorker()
			go w.Serve(lis)
			t.Cleanup(func() {
				w.Drain()
				w.Wait()
			})
			addrs = append(addrs, lis.Addr().String())
		}
		tr, err := shardrpc.Dial(addrs, shardrpc.Options{Seed: 21})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { tr.Close() })
		reg := metrics.New()
		cfg.Transport, cfg.Metrics = tr, reg
		return func(out *core.Outcome) {
			requireNoDrop(t, out)
			if got := reg.Counter("shardrpc_full_syncs_total").Value(); got != int64(cfg.Shards) {
				t.Fatalf("full syncs = %d, want one per worker (%d)", got, cfg.Shards)
			}
			if reg.Counter("shardrpc_delta_syncs_total").Value() == 0 {
				t.Fatal("no delta syncs recorded")
			}
			if got := reg.Counter("shardrpc_rpc_failures_total").Value(); got != 0 {
				t.Fatalf("rpc failures = %d in a healthy run", got)
			}
		}
	}},
}

func budgetRow(name string, procs, workers int) equivRow {
	return equivRow{name: name, procs: procs, mode: func(t *testing.T, cfg *core.Config) func(*core.Outcome) {
		cfg.Workers = workers
		return nil
	}}
}

func mustSearch(t *testing.T, k *equivKey, cfg core.Config) *core.Outcome {
	t.Helper()
	out, err := k.search(t, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// runResumeRows restores a fresh searcher from the reference's snapshot k
// alone and finishes the run: the trace, and the candidates the resumed
// run evaluated, must be the uninterrupted run's.
func runResumeRows(t *testing.T, k *equivKey, ref *equivRef) {
	sweep := []int{k.resumeAt}
	if !testing.Short() {
		sweep = nil
		for s := 1; s <= k.total(); s++ {
			sweep = append(sweep, s)
		}
	}
	for _, at := range sweep {
		t.Run(fmt.Sprintf("resume-from-%d", at), func(t *testing.T) {
			t.Parallel()
			snap, err := (&checkpoint.Manager{FS: ref.fs}).Load("ckpt/" + checkpoint.SnapshotName(int64(at)))
			if err != nil {
				t.Fatal(err)
			}
			fs := checkpoint.NewMemFS()
			if _, err := (&checkpoint.Manager{Dir: "resume", FS: fs}).Save(snap); err != nil {
				t.Fatal(err)
			}
			cfg := k.cfg
			cfg.CheckpointDir, cfg.CheckpointFS, cfg.Resume = "resume", fs, true
			out := mustSearch(t, k, cfg)
			if out.ResumedFrom != int64(at) {
				t.Fatalf("ResumedFrom = %d, want %d", out.ResumedFrom, at)
			}
			k.require(t, ref, out)
			tail := ref.out.Candidates[len(ref.out.Candidates)-len(out.Candidates):]
			for i, c := range out.Candidates {
				if c.Step != tail[i].Step || c.Quality != tail[i].Quality || c.Reward != tail[i].Reward {
					t.Fatalf("candidate %d = %+v, reference %+v", i, c, tail[i])
				}
			}
		})
	}
}

// runStopRow stops the run through Config.Stop after policy step
// k.stopAt: it must return ErrStopped with the partial history and leave
// exactly one snapshot, the one the stop flushed, from which a fresh
// searcher finishes the run.
func runStopRow(t *testing.T, k *equivKey, ref *equivRef) {
	at := k.stopAt
	if !testing.Short() {
		at = k.cfg.Steps / 2
	}
	t.Run(fmt.Sprintf("stop-at-%d", at), func(t *testing.T) {
		t.Parallel()
		fs := checkpoint.NewMemFS()
		cfg := k.cfg
		// Periodic snapshots never fire, so the stop seam's is the only one.
		cfg.CheckpointDir, cfg.CheckpointFS, cfg.CheckpointEvery = "ckpt", fs, 1000
		stop := make(chan struct{})
		cfg.Stop = stop
		cfg.Progress = func(info core.StepInfo) {
			if info.Step == at {
				close(stop)
			}
		}
		partial, err := k.search(t, cfg)
		if !errors.Is(err, core.ErrStopped) {
			t.Fatalf("stopped search returned %v, want ErrStopped", err)
		}
		if len(partial.History) != at+1 {
			t.Fatalf("partial history length %d, want %d", len(partial.History), at+1)
		}
		steps, err := (&checkpoint.Manager{Dir: "ckpt", FS: fs}).List()
		if err != nil {
			t.Fatal(err)
		}
		if want := int64(k.cfg.WarmupSteps + at + 1); len(steps) != 1 || steps[0] != want {
			t.Fatalf("snapshots on disk %v, want exactly the stop-flushed one at step %d", steps, want)
		}

		rcfg := k.cfg
		rcfg.CheckpointDir, rcfg.CheckpointFS, rcfg.Resume = "ckpt", fs, true
		out := mustSearch(t, k, rcfg)
		if out.ResumedFrom != steps[0] {
			t.Fatalf("ResumedFrom = %d, want %d", out.ResumedFrom, steps[0])
		}
		k.require(t, ref, out)
	})
}

func requireNoDrop(t *testing.T, out *core.Outcome) {
	t.Helper()
	for i, d := range out.ShardFirstDrop {
		if d != -1 {
			t.Fatalf("shard %d dropped at step %d in a run that must not drop", i, d)
		}
	}
}
