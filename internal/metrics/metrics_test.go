package metrics

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterConcurrent(t *testing.T) {
	r := New()
	c := r.Counter("hits")
	const workers, perWorker = 16, 10000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != workers*perWorker {
		t.Fatalf("counter = %d, want %d", got, workers*perWorker)
	}
	if r.Counter("hits") != c {
		t.Fatal("Counter must return the same instrument for the same name")
	}
}

func TestGaugeConcurrent(t *testing.T) {
	r := New()
	g := r.Gauge("level")
	const workers, perWorker = 8, 5000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				g.Add(0.5)
			}
		}()
	}
	wg.Wait()
	want := float64(workers*perWorker) * 0.5
	if got := g.Value(); math.Abs(got-want) > 1e-6 {
		t.Fatalf("gauge = %v, want %v", got, want)
	}
	g.Set(-3)
	if got := g.Value(); got != -3 {
		t.Fatalf("gauge after Set = %v, want -3", got)
	}
}

func TestHistogramConcurrentAndMoments(t *testing.T) {
	r := New()
	h := r.Histogram("lat")
	const workers, perWorker = 8, 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				h.Observe(float64(w + 1)) // values 1..8
			}
		}(w)
	}
	wg.Wait()
	if got := h.Count(); got != workers*perWorker {
		t.Fatalf("count = %d, want %d", got, workers*perWorker)
	}
	wantSum := float64(perWorker) * (1 + 2 + 3 + 4 + 5 + 6 + 7 + 8)
	if got := h.Sum(); math.Abs(got-wantSum) > 1e-6 {
		t.Fatalf("sum = %v, want %v", got, wantSum)
	}
	if h.Min() != 1 || h.Max() != 8 {
		t.Fatalf("min/max = %v/%v, want 1/8", h.Min(), h.Max())
	}
}

func TestHistogramQuantiles(t *testing.T) {
	r := New()
	h := r.Histogram("q")
	// 1..1000: quantiles should land within the ±4.4% bucket resolution.
	for i := 1; i <= 1000; i++ {
		h.Observe(float64(i))
	}
	cases := []struct{ q, want float64 }{
		{0.50, 500},
		{0.90, 900},
		{0.99, 990},
		{0, 1},
		{1, 1000},
	}
	for _, c := range cases {
		got := h.Quantile(c.q)
		if relErr := math.Abs(got-c.want) / c.want; relErr > 0.10 {
			t.Errorf("Quantile(%v) = %v, want ~%v (rel err %.3f)", c.q, got, c.want, relErr)
		}
	}
	// Quantiles clamp to observed range.
	if h.Quantile(1) > h.Max() || h.Quantile(0) < h.Min() {
		t.Fatalf("quantiles escaped [min, max]")
	}
}

func TestHistogramEdgeValues(t *testing.T) {
	r := New()
	h := r.Histogram("edge")
	h.Observe(0)     // underflow
	h.Observe(-5)    // underflow
	h.Observe(1e300) // overflow
	if h.Count() != 3 {
		t.Fatalf("count = %d, want 3", h.Count())
	}
	if h.Min() != -5 || h.Max() != 1e300 {
		t.Fatalf("min/max = %v/%v", h.Min(), h.Max())
	}
	if got := h.Quantile(0.01); got != -5 {
		t.Fatalf("low quantile should clamp to min, got %v", got)
	}
	if got := h.Quantile(0.999); got != 1e300 {
		t.Fatalf("high quantile should clamp to max, got %v", got)
	}
}

func TestSpanRecordsSeconds(t *testing.T) {
	r := New()
	h := r.Histogram("span_seconds")
	sp := h.Start()
	time.Sleep(2 * time.Millisecond)
	sp.End()
	if h.Count() != 1 {
		t.Fatalf("span did not record")
	}
	if v := h.Max(); v < 0.001 || v > 1 {
		t.Fatalf("span duration %v out of plausible range", v)
	}
	r.Histogram("via_registry_seconds").Start().End()
	if r.Histogram("via_registry_seconds").Count() != 1 {
		t.Fatalf("span on a by-name histogram did not record")
	}
}

func TestNopRegistryIsFreeAndSafe(t *testing.T) {
	r := Nop()
	if r.Enabled() {
		t.Fatal("nop registry must report disabled")
	}
	c, g, h := r.Counter("c"), r.Gauge("g"), r.Histogram("h")
	if c != nil || g != nil || h != nil {
		t.Fatal("nop instruments must be nil")
	}
	c.Inc()
	c.Add(5)
	g.Set(1)
	g.Add(1)
	h.Observe(1)
	h.Start().End()
	r.Histogram("x").Start().End()
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Quantile(0.5) != 0 {
		t.Fatal("nop instruments must read as zero")
	}
	snap := r.Snapshot()
	if len(snap.Counters)+len(snap.Gauges)+len(snap.Histograms) != 0 {
		t.Fatal("nop snapshot must be empty")
	}
	if r.Summary() != "" {
		t.Fatal("nop summary must be empty")
	}
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil || buf.Len() != 0 {
		t.Fatalf("nop prometheus output = %q, err %v", buf.String(), err)
	}
}

func TestPrometheusRendering(t *testing.T) {
	r := New()
	r.Counter("requests_total").Add(7)
	r.Gauge("buffer_occupancy").Set(3.5)
	h := r.Histogram("step_seconds")
	for i := 0; i < 100; i++ {
		h.Observe(0.01)
	}
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE requests_total counter",
		"requests_total 7",
		"# TYPE buffer_occupancy gauge",
		"buffer_occupancy 3.5",
		"# TYPE step_seconds summary",
		`step_seconds{quantile="0.5"}`,
		`step_seconds{quantile="0.99"}`,
		"step_seconds_sum 1",
		"step_seconds_count 100",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus output missing %q:\n%s", want, out)
		}
	}
	// Names with illegal characters are sanitized.
	r2 := New()
	r2.Counter("shard-0.steps").Inc()
	buf.Reset()
	if err := r2.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "shard_0_steps 1") {
		t.Errorf("name not sanitized: %s", buf.String())
	}
}

func TestSnapshotJSONRoundTrip(t *testing.T) {
	r := New()
	r.Counter("c").Add(2)
	r.Gauge("g").Set(1.25)
	r.Histogram("h_seconds").Observe(0.5)
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var snap Snapshot
	if err := json.Unmarshal(buf.Bytes(), &snap); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if len(snap.Counters) != 1 || snap.Counters[0].Value != 2 {
		t.Fatalf("bad counters: %+v", snap.Counters)
	}
	if len(snap.Gauges) != 1 || snap.Gauges[0].Value != 1.25 {
		t.Fatalf("bad gauges: %+v", snap.Gauges)
	}
	if len(snap.Histograms) != 1 || snap.Histograms[0].Count != 1 {
		t.Fatalf("bad histograms: %+v", snap.Histograms)
	}
}

func TestSummaryTable(t *testing.T) {
	r := New()
	r.Counter("search_steps_total").Add(300)
	r.Gauge("search_entropy").Set(12.5)
	h := r.Histogram("search_step_seconds")
	h.Observe(0.002)
	h.Observe(0.004)
	out := r.Summary()
	for _, want := range []string{"search_steps_total", "search_entropy", "search_step_seconds", "histogram", "counter", "gauge"} {
		if !strings.Contains(out, want) {
			t.Errorf("summary missing %q:\n%s", want, out)
		}
	}
	// Durations render with units.
	if !strings.Contains(out, "ms") {
		t.Errorf("summary should render millisecond durations:\n%s", out)
	}
}

func TestSnapshotSorted(t *testing.T) {
	r := New()
	for _, n := range []string{"z", "a", "m"} {
		r.Counter(n).Inc()
	}
	snap := r.Snapshot()
	if snap.Counters[0].Name != "a" || snap.Counters[1].Name != "m" || snap.Counters[2].Name != "z" {
		t.Fatalf("counters not sorted: %+v", snap.Counters)
	}
}
