package jobs_test

import (
	"encoding/json"
	"io"
	"reflect"
	"testing"
	"time"

	"h2onas"
	"h2onas/internal/checkpoint"
	"h2onas/internal/jobs"
)

// TestJobRunsTheFacadeSearch pins that the recipe is single: a job
// submitted to the service and h2onas.SearchDLRM called with the same
// model, chip, reward, latency factor, sizes and seed are the same
// search, so the job's result.json trajectory equals the façade run's
// field for field. (The job additionally checkpoints and bounds its
// candidate pool; neither may move the trajectory.)
func TestJobRunsTheFacadeSearch(t *testing.T) {
	spec := jobs.Spec{
		Reward: "absolute", Chip: "tpuv4i", LatencyTarget: 0.9,
		Steps: 6, Shards: 3, Batch: 8, Warmup: 2, Seed: 5,
	}
	svc, err := jobs.Open("root", jobs.Options{Workers: 1, FS: checkpoint.NewMemFS(), Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	rec, err := svc.Submit("alice", spec)
	if err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(60 * time.Second); ; time.Sleep(2 * time.Millisecond) {
		st, err := svc.Status("alice", rec.ID)
		if err != nil {
			t.Fatal(err)
		}
		if st.State == jobs.StateDone {
			break
		}
		if st.State == jobs.StateFailed || time.Now().After(deadline) {
			t.Fatalf("job did not finish: %+v", st.Record)
		}
	}
	f, err := svc.Artifact("alice", rec.ID, "result.json")
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	var job struct {
		Best         h2onas.Assignment `json:"best"`
		BestPerf     []float64         `json:"best_perf"`
		FinalQuality float64           `json:"final_quality"`
		History      []h2onas.StepInfo `json:"history"`
	}
	if err := json.Unmarshal(data, &job); err != nil {
		t.Fatalf("result.json: %v\n%s", err, data)
	}

	model := h2onas.SmallDLRMConfig() // the "dlrm-small" space
	res, err := h2onas.SearchDLRM(model, h2onas.DLRMTraffic(model), h2onas.TPUv4i(), h2onas.AbsoluteReward,
		spec.LatencyTarget, h2onas.OneShotSearchConfig(spec.Shards, spec.Steps, spec.Batch, spec.Warmup, spec.Seed))
	if err != nil {
		t.Fatal(err)
	}
	if len(job.History) != spec.Steps || !reflect.DeepEqual(job.History, res.History) {
		t.Errorf("history differs:\n job    %+v\n façade %+v", job.History, res.History)
	}
	if !reflect.DeepEqual(job.Best, res.Best) {
		t.Errorf("best differs: job %v, façade %v", job.Best, res.Best)
	}
	if !reflect.DeepEqual(job.BestPerf, res.BestPerf) {
		t.Errorf("best_perf differs: job %v, façade %v", job.BestPerf, res.BestPerf)
	}
	if job.FinalQuality != res.FinalQuality {
		t.Errorf("final_quality differs: job %v, façade %v", job.FinalQuality, res.FinalQuality)
	}
}
