package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"h2onas/internal/core"
)

func TestPercentile(t *testing.T) {
	v := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ p, want float64 }{{0, 1}, {50, 3}, {100, 5}, {25, 2}, {90, 4.6}} {
		if got := percentile(v, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if v[0] != 5 {
		t.Error("percentile reordered its input")
	}
	if percentile(nil, 50) != 0 {
		t.Error("percentile of nothing should be 0")
	}
}

func TestTrajectoryDigest(t *testing.T) {
	h := []core.StepInfo{{Step: 0, MeanReward: 0.5, MeanQ: 0.25}, {Step: 1, MeanReward: 0.75, Entropy: 2}}
	same := append([]core.StepInfo(nil), h...)
	if trajectoryDigest(h) != trajectoryDigest(same) {
		t.Error("equal trajectories digest differently")
	}
	same[1].Entropy = math.Nextafter(2, 3)
	if trajectoryDigest(h) == trajectoryDigest(same) {
		t.Error("a one-ulp change left the digest alone")
	}
	if !historyFinite(h) {
		t.Error("finite history reported as not finite")
	}
	same[0].MeanQ = math.NaN()
	if historyFinite(same) {
		t.Error("NaN went unnoticed")
	}
}

func TestCountingListener(t *testing.T) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var rx, tx atomic.Int64
	cl := countingListener{Listener: lis, rx: &rx, tx: &tx}
	defer cl.Close()
	done := make(chan error, 1)
	go func() {
		c, err := cl.Accept()
		if err != nil {
			done <- err
			return
		}
		defer c.Close()
		buf := make([]byte, 5)
		if _, err := io.ReadFull(c, buf); err != nil {
			done <- err
			return
		}
		_, err = c.Write([]byte("abc"))
		done <- err
	}()
	c, err := net.Dial("tcp", lis.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Write([]byte("hello")); err != nil {
		t.Fatal(err)
	}
	if _, err := io.ReadFull(c, make([]byte, 3)); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if rx.Load() != 5 || tx.Load() != 3 {
		t.Errorf("counted rx=%d tx=%d, want 5 and 3", rx.Load(), tx.Load())
	}
}

func TestSelfTime(t *testing.T) {
	tr := newTracer()
	at := func(ms int) time.Time { return tr.epoch.Add(time.Duration(ms) * time.Millisecond) }
	root := tr.begin("round", at(0), -1, 0, 0, true)
	tr.finish(root, at(100))
	fan := tr.begin("core.fanout", at(10), root, 0, 0, false)
	tr.finish(fan, at(70))
	// Two shards in parallel cover 20..60 once.
	tr.add("supernet.forward", at(20), at(50), fan, 0, 1)
	tr.add("supernet.forward", at(30), at(60), fan, 0, 2)
	self := tr.selfTimes()
	if got := self[root]; got != 40*time.Millisecond {
		t.Errorf("root self time %v, want 40ms", got)
	}
	if got := self[fan]; got != 20*time.Millisecond {
		t.Errorf("fan-out self time %v, want 20ms", got)
	}
	if got := tr.unattributedShare(); math.Abs(got-0.4) > 1e-9 {
		t.Errorf("unattributed share %v, want 0.4", got)
	}
	if got := tr.perParent("core.fanout", "supernet.forward"); len(got) != 1 || got[0] != 60 {
		t.Errorf("per-parent sums %v, want [60]", got)
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
var unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

func TestCatalogWithinLimits(t *testing.T) {
	if n := len(workloadDefs); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	if n := len(endToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(perLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q is outside [A-Za-z0-9_.-]{1,64}", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	for _, w := range workloadDefs {
		name(w.Name)
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
		if workloads[w.Name] == nil {
			t.Errorf("workload %s has no set-up function", w.Name)
		}
	}
	hasSetup := false
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		name(d.Name)
		if !unitRE.MatchString(d.Unit) {
			t.Errorf("%s: unit %q is outside the allowed form", d.Name, d.Unit)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("%s: better is %q", d.Name, d.Better)
		}
		if d.Bound < 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside 0..0.25", d.Name, d.Bound)
		}
		hasSetup = hasSetup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for _, d := range perLayer {
		if !strings.Contains(d.Name, ".") || d.Moves == "" || len(d.On) == 0 {
			t.Errorf("%s: a per-layer metric names its layer, what it moves and where it is measured", d.Name)
		}
	}
}

func TestBenchmarkJSONInSync(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, benchmarkJSON()) {
		t.Error("BENCHMARK.json differs from the metric tables; regenerate it with: bash benchmark/run.sh -describe > BENCHMARK.json")
	}
	if len(data) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, over 64 KiB", len(data))
	}
}

// TestSmoke runs every workload at the tiny smoke size, untraced and
// traced, and checks that each emits every metric declared for it.
func TestSmoke(t *testing.T) {
	out := t.TempDir()
	for _, wd := range workloadDefs {
		t.Run(wd.Name, func(t *testing.T) {
			o := runOpts{workload: wd.Name, seed: 7, seconds: 0.2, smoke: true, out: out}
			res, err := runWorkload(o)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Attempted < 1 {
				t.Errorf("untraced: attempted %d, failed %d: %v", res.Attempted, res.Failed, res.Problems)
			}
			wire := res.wire(false)
			for _, d := range endToEnd {
				if m, ok := wire.Metrics[d.Name]; !ok || !(m.Value > 0) || m.Unit != d.Unit {
					t.Errorf("end-to-end %s = %+v, want a positive value in %s", d.Name, m, d.Unit)
				}
			}
			if len(wire.Metrics) != len(endToEnd) {
				t.Errorf("untraced run reports %d metrics, want %d", len(wire.Metrics), len(endToEnd))
			}

			o.trace = true
			res, err = runWorkload(o)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct {
				t.Errorf("traced: failed %d: %v", res.Failed, res.Problems)
			}
			wire = res.wire(true)
			if len(wire.Metrics) != len(perLayer) {
				t.Errorf("traced run reports %d metrics, want %d", len(wire.Metrics), len(perLayer))
			}
			for _, d := range perLayer {
				v := wire.Metrics[d.Name].Value
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("per-layer %s is %v", d.Name, v)
				}
				if !d.measuredOn(wd.Name) && v != 0 {
					t.Errorf("per-layer %s = %v on a workload that does not measure it", d.Name, v)
				}
			}
			if _, err := os.Stat(res.TracePath); err != nil {
				t.Errorf("no Chrome trace written: %v", err)
			}
			if _, err := json.Marshal(wire); err != nil {
				t.Errorf("result does not encode: %v", err)
			}
		})
	}
}

func TestCompare(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, s stamp, opMs float64) string {
		rep := report{Stamp: s, Workloads: map[string]*workloadReport{}}
		for _, wd := range workloadDefs {
			m := map[string]float64{}
			for _, d := range endToEnd {
				m[d.Name] = 10
			}
			m["op_ms_p50"] = opMs
			rep.Workloads[wd.Name] = &workloadReport{Untraced: &result{Correct: true, Attempted: 1, Metrics: m, Digests: []string{"00000000deadbeef"}}}
		}
		data, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	s := stamp{GOMAXPROCS: 2, NumCPU: 2, KernelBackend: "scalar", Seed: 1, Seconds: 15, Scale: "full"}
	base := write("a.json", s, 10)
	var buf bytes.Buffer
	if err := compareReports(&buf, base, write("b.json", s, 10.5)); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "worse") || !strings.Contains(buf.String(), "1.0500 of 10") {
		t.Errorf("a 5 %% slowdown inside a 10 %% bound should read ok, with its ratio and base:\n%s", buf.String())
	}
	buf.Reset()
	if err := compareReports(&buf, base, write("c.json", s, 14)); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "worse") {
		t.Errorf("a 40 %% slowdown should read worse:\n%s", buf.String())
	}
	other := s
	other.GOMAXPROCS = 4
	buf.Reset()
	if err := compareReports(&buf, base, write("d.json", other, 10)); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(buf.String(), "REFUSED") {
		t.Errorf("reports under different GOMAXPROCS must be refused:\n%s", buf.String())
	}
}
