package jobs

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"h2onas/internal/checkpoint"
)

func testAPI(t *testing.T, opts Options) (*Service, *http.ServeMux) {
	t.Helper()
	if opts.FS == nil {
		opts.FS = checkpoint.NewMemFS()
	}
	opts.Logf = t.Logf
	s, err := Open("root", opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	mux := http.NewServeMux()
	s.Mount(mux)
	return s, mux
}

func doJSON(t *testing.T, mux *http.ServeMux, method, path, tenant, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(method, path, strings.NewReader(body))
	if tenant != "" {
		req.Header.Set("X-Tenant", tenant)
	}
	w := httptest.NewRecorder()
	mux.ServeHTTP(w, req)
	return w
}

func TestJobAPILifecycle(t *testing.T) {
	_, mux := testAPI(t, Options{Workers: 1})

	w := doJSON(t, mux, "POST", "/jobs", "alice", `{"steps":3,"shards":2,"batch":8,"warmup":1,"seed":7}`)
	if w.Code != http.StatusAccepted {
		t.Fatalf("submit = %d: %s", w.Code, w.Body)
	}
	var rec Record
	if err := json.Unmarshal(w.Body.Bytes(), &rec); err != nil {
		t.Fatal(err)
	}
	if rec.ID == "" || rec.State != StateQueued || rec.Spec.Strategy != "reinforce" {
		t.Fatalf("submitted record = %+v", rec)
	}

	waitFor(t, "job done over HTTP", func() bool {
		w := doJSON(t, mux, "GET", "/jobs/"+rec.ID, "alice", "")
		if w.Code != http.StatusOK {
			return false
		}
		var st Status
		return json.Unmarshal(w.Body.Bytes(), &st) == nil && st.State == StateDone
	})

	// List shows the tenant's job; another tenant sees nothing.
	w = doJSON(t, mux, "GET", "/jobs", "alice", "")
	var list []Status
	if err := json.Unmarshal(w.Body.Bytes(), &list); err != nil || len(list) != 1 {
		t.Fatalf("list = %s (err %v)", w.Body, err)
	}
	w = doJSON(t, mux, "GET", "/jobs", "bob", "")
	if err := json.Unmarshal(w.Body.Bytes(), &list); err != nil || len(list) != 0 {
		t.Fatalf("foreign list = %s (err %v)", w.Body, err)
	}

	// Artifacts come back with their content types.
	w = doJSON(t, mux, "GET", "/jobs/"+rec.ID+"/artifacts/result.json", "alice", "")
	if w.Code != http.StatusOK || w.Header().Get("Content-Type") != "application/json" {
		t.Fatalf("result.json: %d %s", w.Code, w.Header().Get("Content-Type"))
	}
	var res struct {
		Best         []int     `json:"best"`
		BestArch     string    `json:"best_arch"`
		FinalQuality float64   `json:"final_quality"`
		BestPerf     []float64 `json:"best_perf"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &res); err != nil || res.BestArch == "" || len(res.BestPerf) != 2 {
		t.Fatalf("result.json body = %s (err %v)", w.Body, err)
	}
	w = doJSON(t, mux, "GET", "/jobs/"+rec.ID+"/artifacts/best.dot", "alice", "")
	if w.Code != http.StatusOK || !strings.Contains(w.Body.String(), "digraph") {
		t.Fatalf("best.dot: %d %s", w.Code, w.Body)
	}

	// Cross-tenant and off-allowlist access is 404.
	for _, probe := range []struct{ tenant, path string }{
		{"bob", "/jobs/" + rec.ID},
		{"bob", "/jobs/" + rec.ID + "/artifacts/result.json"},
		{"alice", "/jobs/" + rec.ID + "/artifacts/evil.txt"},
		{"alice", "/jobs/j-999999"},
	} {
		w := doJSON(t, mux, "GET", probe.path, probe.tenant, "")
		if w.Code != http.StatusNotFound {
			t.Fatalf("GET %s as %s = %d, want 404", probe.path, probe.tenant, w.Code)
		}
	}
	// Dot-dot traversal never reaches the handler: ServeMux canonicalizes
	// the path away with a redirect, and the allowlist would 404 anything
	// that somehow did.
	w = doJSON(t, mux, "GET", "/jobs/"+rec.ID+"/artifacts/../secrets", "alice", "")
	if w.Code != http.StatusMovedPermanently {
		t.Fatalf("traversal probe = %d, want the mux's canonicalizing redirect", w.Code)
	}
}

func TestJobAPIBadRequests(t *testing.T) {
	_, mux := testAPI(t, Options{Workers: 1})
	cases := []struct {
		name, tenant, body string
	}{
		{"malformed json", "alice", `{"steps":`},
		{"unknown field", "alice", `{"stepz":3}`},
		{"unknown strategy", "alice", `{"strategy":"quantum"}`},
		{"over-cap shards", "alice", `{"shards":512}`},
		// Both used to be admitted and fail the job when it started.
		{"halving budget below its rung plan", "alice", `{"strategy":"halving","steps":4,"shards":4}`},
		{"latency target that underflows the reward target", "alice", `{"latency_target":5e-324}`},
		{"bad tenant", "Alice Smith", `{}`},
	}
	for _, tc := range cases {
		w := doJSON(t, mux, "POST", "/jobs", tc.tenant, tc.body)
		if w.Code != http.StatusBadRequest {
			t.Fatalf("%s: %d %s, want 400", tc.name, w.Code, w.Body)
		}
		if !strings.Contains(w.Header().Get("Content-Type"), "application/json") {
			t.Fatalf("%s: error content type %q", tc.name, w.Header().Get("Content-Type"))
		}
	}
}

func TestJobAPIQuotaReturns429WithRetryAfter(t *testing.T) {
	s, mux := testAPI(t, Options{Workers: 1, TenantQuota: 2, MaxQueue: 3})
	s.pause()
	defer s.release()
	for i := 0; i < 2; i++ {
		if w := doJSON(t, mux, "POST", "/jobs", "alice", `{"steps":2,"shards":2,"batch":8,"warmup":1}`); w.Code != http.StatusAccepted {
			t.Fatalf("submit %d = %d: %s", i, w.Code, w.Body)
		}
	}
	w := doJSON(t, mux, "POST", "/jobs", "alice", `{}`)
	if w.Code != http.StatusTooManyRequests || w.Header().Get("Retry-After") == "" {
		t.Fatalf("over-quota submit = %d (Retry-After %q), want 429 with a hint", w.Code, w.Header().Get("Retry-After"))
	}
	if w := doJSON(t, mux, "POST", "/jobs", "bob", `{}`); w.Code != http.StatusAccepted {
		t.Fatalf("bob's submit = %d: %s", w.Code, w.Body)
	}
	w = doJSON(t, mux, "POST", "/jobs", "carol", `{}`)
	if w.Code != http.StatusTooManyRequests || w.Header().Get("Retry-After") == "" {
		t.Fatalf("over-capacity submit = %d, want 429", w.Code)
	}
}

func TestJobAPICancel(t *testing.T) {
	s, mux := testAPI(t, Options{Workers: 1, CheckpointEvery: 1000})
	s.pause()
	w := doJSON(t, mux, "POST", "/jobs", "alice", `{"steps":1500,"shards":2,"batch":8,"warmup":1}`)
	var rec Record
	if err := json.Unmarshal(w.Body.Bytes(), &rec); err != nil {
		t.Fatal(err)
	}
	// Queued cancel is immediate.
	w = doJSON(t, mux, "DELETE", "/jobs/"+rec.ID, "alice", "")
	if w.Code != http.StatusOK || !strings.Contains(w.Body.String(), string(StateCancelled)) {
		t.Fatalf("queued cancel = %d: %s", w.Code, w.Body)
	}
	s.release()

	// Running cancel is cooperative: 202, then terminal at a boundary.
	w = doJSON(t, mux, "POST", "/jobs", "alice", `{"steps":1500,"shards":2,"batch":8,"warmup":1,"seed":3}`)
	if err := json.Unmarshal(w.Body.Bytes(), &rec); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "job running", func() bool {
		st, err := s.Status("alice", rec.ID)
		return err == nil && st.Progress != nil && st.Progress.Step >= 1
	})
	w = doJSON(t, mux, "DELETE", "/jobs/"+rec.ID, "alice", "")
	if w.Code != http.StatusAccepted {
		t.Fatalf("running cancel = %d: %s", w.Code, w.Body)
	}
	waitFor(t, "cancelled", func() bool {
		st, err := s.Status("alice", rec.ID)
		return err == nil && st.State == StateCancelled
	})
	// Foreign cancel is 404.
	if w := doJSON(t, mux, "DELETE", "/jobs/"+rec.ID, "bob", ""); w.Code != http.StatusNotFound {
		t.Fatalf("foreign cancel = %d, want 404", w.Code)
	}
}
