package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"h2onas/internal/tensor"
)

// stamp says where and how a report's numbers were taken. Two reports
// compare only when the fields that change what a number means agree.
type stamp struct {
	GOMAXPROCS    int     `json:"gomaxprocs"`
	NumCPU        int     `json:"num_cpu"`
	CPUModel      string  `json:"cpu_model"`
	GoVersion     string  `json:"go_version"`
	KernelBackend string  `json:"kernel_backend"`
	Commit        string  `json:"commit"`
	Seed          uint64  `json:"seed"`
	Seconds       float64 `json:"seconds"`
	Scale         string  `json:"scale"`
	Time          string  `json:"time"`
}

func newStamp(o runOpts) stamp {
	s := stamp{
		GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(), CPUModel: "unknown",
		GoVersion: runtime.Version(), KernelBackend: tensor.KernelBackend(), Commit: "unknown",
		Seed: o.seed, Seconds: o.seconds, Scale: o.scale(), Time: time.Now().UTC().Format(time.RFC3339),
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				s.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	// A driver's checkout is not a git repository; the stamp then says so.
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		s.Commit = strings.TrimSpace(string(out))
	}
	return s
}

type workloadReport struct {
	Untraced *result `json:"untraced"`
	Traced   *result `json:"traced,omitempty"`
}

// report is the machine-stamped result of one invocation over all five
// workloads. A benchmark report claims nothing: it is the baseline that
// later claims are measured against.
type report struct {
	Stamp     stamp                      `json:"stamp"`
	Workloads map[string]*workloadReport `json:"workloads"`
	Claim     *string                    `json:"claim"`
}

// runAll runs the five workloads one after the other, each in its own
// child process, so pools, arenas and GC state never carry over and
// peak_rss_mb belongs to one workload.
func runAll(o runOpts) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return err
	}
	rep := &report{Stamp: newStamp(o), Workloads: map[string]*workloadReport{}}
	for _, wd := range workloadDefs {
		wr := &workloadReport{}
		rep.Workloads[wd.Name] = wr
		for _, traced := range []bool{false, true} {
			if traced && !o.trace {
				continue
			}
			rec, err := runChild(self, wd.Name, o, traced)
			if err != nil {
				return err
			}
			if traced {
				wr.Traced = rec
			} else {
				wr.Untraced = rec
			}
		}
	}
	path := filepath.Join(o.out, fmt.Sprintf("report-seed%d.json", o.seed))
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("report written to %s\n", path)
	return nil
}

// runChild re-executes the benchmark for one workload, passes its output
// through, and reads the full record the child left beside its traces.
func runChild(self, workload string, o runOpts, traced bool) (*result, error) {
	flagTrace := "0"
	if traced {
		flagTrace = "1"
	}
	cmd := exec.Command(self, "-workload", workload, "-seed", fmt.Sprint(o.seed),
		"-seconds", fmt.Sprint(o.seconds), "-trace", flagTrace, "-scale", o.scale(), "-out", o.out)
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s (trace %s): %w", workload, flagTrace, err)
	}
	// Everything but the machine-readable last line is for the reader.
	var last string
	sc := bufio.NewScanner(&stdout)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if last != "" {
			fmt.Println(last)
		}
		last = sc.Text()
	}
	var wire wireResult
	if err := json.Unmarshal([]byte(last), &wire); err != nil {
		return nil, fmt.Errorf("%s: last line is not a result: %w", workload, err)
	}
	return readRecord(recordPath(o.out, workload, traced))
}

func recordPath(out, workload string, traced bool) string {
	kind := "untraced"
	if traced {
		kind = "traced"
	}
	return filepath.Join(out, fmt.Sprintf("result-%s-%s.json", workload, kind))
}

// writeRecord leaves a run's full record where runAll picks it up.
func writeRecord(o runOpts, res *result) error {
	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(recordPath(o.out, o.workload, o.trace), append(data, '\n'), 0o644)
}

func readRecord(path string) (*result, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	res := &result{}
	return res, json.Unmarshal(data, res)
}

func readReport(path string) (*report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	rep := &report{}
	if err := json.Unmarshal(data, rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return rep, nil
}

// compareReports prints, per workload and end-to-end metric, both values,
// their ratio with its base, the bound and a verdict. Reports taken under
// different configurations are refused, loudly and with exit code 0: a
// comparison across machines or seeds is not a result.
func compareReports(w io.Writer, pathA, pathB string) error {
	a, err := readReport(pathA)
	if err != nil {
		return err
	}
	b, err := readReport(pathB)
	if err != nil {
		return err
	}
	sa, sb := a.Stamp, b.Stamp
	if sa.GOMAXPROCS != sb.GOMAXPROCS || sa.NumCPU != sb.NumCPU || sa.KernelBackend != sb.KernelBackend ||
		sa.Seed != sb.Seed || sa.Seconds != sb.Seconds || sa.Scale != sb.Scale {
		fmt.Fprintf(w, "REFUSED: the reports were taken under different configurations and do not compare:\n")
		fmt.Fprintf(w, "  %s: GOMAXPROCS=%d NumCPU=%d backend=%s seed=%d seconds=%g scale=%s\n", pathA, sa.GOMAXPROCS, sa.NumCPU, sa.KernelBackend, sa.Seed, sa.Seconds, sa.Scale)
		fmt.Fprintf(w, "  %s: GOMAXPROCS=%d NumCPU=%d backend=%s seed=%d seconds=%g scale=%s\n", pathB, sb.GOMAXPROCS, sb.NumCPU, sb.KernelBackend, sb.Seed, sb.Seconds, sb.Scale)
		return nil
	}
	fmt.Fprintf(w, "base %s (commit %s)  vs  %s (commit %s)\n", pathA, sa.Commit, pathB, sb.Commit)
	fmt.Fprintf(w, "%-20s %-14s %14s %14s %22s %7s  %s\n", "workload", "metric", "base", "new", "new/base", "bound", "verdict")
	for _, wd := range workloadDefs {
		ra, rb := a.Workloads[wd.Name], b.Workloads[wd.Name]
		if ra == nil || rb == nil || ra.Untraced == nil || rb.Untraced == nil {
			fmt.Fprintf(w, "%-20s missing from one report: unresolved\n", wd.Name)
			continue
		}
		for _, d := range endToEnd {
			va, vb := ra.Untraced.Metrics[d.Name], rb.Untraced.Metrics[d.Name]
			fmt.Fprintf(w, "%-20s %-14s %14.4f %14.4f %12.4f of %-8.4g %6.0f%%  %s\n",
				wd.Name, d.Name, va, vb, ratio(vb, va), va, d.Bound*100, verdict(d, va, vb))
		}
		fa := ratio(float64(ra.Untraced.Failed), float64(ra.Untraced.Attempted))
		fb := ratio(float64(rb.Untraced.Failed), float64(rb.Untraced.Attempted))
		fmt.Fprintf(w, "%-20s %-14s %14.4f %14.4f %31s %6.0f%%  %s\n", wd.Name, "failed_share", fa, fb, "", 0.0, exact(fb <= fa))
		da, db := ra.Untraced.Digests, rb.Untraced.Digests
		same := len(da) > 0 && len(db) > 0 && da[0] == db[0]
		fmt.Fprintf(w, "%-20s %-14s %14s %14s %31s %7s  %s\n", wd.Name, "digest", short(da), short(db), "", "exact", exact(same))
	}
	return nil
}

// verdict is ok while the new value is no worse than the base by more than
// the metric's bound, and unresolved when a value is missing.
func verdict(d metricDef, base, v float64) string {
	if base <= 0 || v <= 0 {
		return "unresolved"
	}
	worse := v/base - 1
	if d.Better == "higher" {
		worse = 1 - v/base
	}
	if worse > d.Bound {
		return "worse"
	}
	return "ok"
}

func exact(ok bool) string {
	if ok {
		return "ok"
	}
	return "worse"
}

func short(digests []string) string {
	if len(digests) == 0 {
		return "-"
	}
	return digests[0][:12]
}
