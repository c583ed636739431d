package jobs

import (
	"bytes"
	"errors"
	"fmt"

	"h2onas/internal/core"
	"h2onas/internal/pareto"
)

// maxFrontPoints caps the Pareto front stored on a done record: the front
// is a status payload, not an artifact, so it must stay small.
const maxFrontPoints = 64

// runJob executes one job end to end: journal the running transition,
// run the search with the job's private checkpoint directory and stop
// channel, and journal the outcome. Resume is always on — a fresh job
// finds an empty directory and starts from scratch; an interrupted one
// finds its newest snapshot and continues the original trajectory
// bit-for-bit.
//
// The returned flag is true only for a simulated crash (the crashStep
// test hook): the runner then journals nothing — exactly what a SIGKILL
// would leave behind — so recovery tests exercise the same replay path a
// real process death does.
func (s *Service) runJob(rec Record, rj *runningJob) (crashed bool) {
	rec.State = StateRunning
	rec.StartedUnix = s.opts.Clock.Now().Unix()
	rec.Attempts++
	if err := s.store.Put(rec); err != nil {
		s.opts.Logf("jobs: %s: journaling running state: %v", rec.ID, err)
		s.finish(rec, StateFailed, fmt.Sprintf("journaling running state: %v", err))
		return false
	}

	searcher, cfg, err := rec.Spec.build()
	if err != nil {
		s.finish(rec, StateFailed, err.Error())
		return false
	}
	cfg.CheckpointDir = s.store.CheckpointDir(rec.ID)
	cfg.CheckpointFS = s.opts.FS
	cfg.CheckpointEvery = s.opts.CheckpointEvery
	cfg.CheckpointRetain = retain
	cfg.Resume = true
	cfg.Stop = rj.stop
	cfg.Metrics = s.opts.Metrics
	hook := s.crashStep
	id := rec.ID
	cfg.Progress = func(info core.StepInfo) {
		rj.observe(info.Step, info.MeanReward)
		if hook != nil && hook(id, info.Step) {
			rj.signal(modeCrash)
		}
	}

	res, err := searcher.Search(cfg)
	if errors.Is(err, core.ErrStopped) {
		// The stop seam flushed a final snapshot before returning, so
		// every non-crash outcome below leaves the work resumable.
		switch rj.mode {
		case modeCrash:
			return true
		case modePark:
			rec.State = StateQueued
			rec.Resumes++
			if perr := s.store.Put(rec); perr != nil {
				s.opts.Logf("jobs: %s: journaling parked state: %v", rec.ID, perr)
			}
			s.ins.parked.Inc()
			s.opts.Logf("jobs: %s parked at a step boundary; will resume on restart", rec.ID)
		default: // modeCancel
			s.finish(rec, StateCancelled, "")
		}
		return false
	}
	if err != nil {
		s.finish(rec, StateFailed, err.Error())
		return false
	}

	// Artifacts first, then the done record: a crash between the two
	// re-runs the tail of the search and finds the artifacts already
	// present (WriteArtifact skips existing files), so completion is
	// idempotent and the served bytes never change once written.
	ds := searcher.DS
	data, err := res.ResultDocument(ds.Space)
	if err != nil {
		s.finish(rec, StateFailed, fmt.Sprintf("encoding result: %v", err))
		return false
	}
	if err := s.store.WriteArtifact(rec.ID, "result.json", data); err != nil {
		s.finish(rec, StateFailed, err.Error())
		return false
	}
	var dot bytes.Buffer
	if err := ds.Graph(ds.Decode(res.Best)).WriteDot(&dot); err != nil {
		s.finish(rec, StateFailed, fmt.Sprintf("rendering best.dot: %v", err))
		return false
	}
	if err := s.store.WriteArtifact(rec.ID, "best.dot", dot.Bytes()); err != nil {
		s.finish(rec, StateFailed, err.Error())
		return false
	}
	rec.Artifacts = []string{"result.json", "best.dot"}
	rec.Front = frontOf(res)
	s.finish(rec, StateDone, "")
	return false
}

// finish journals a terminal transition and bumps its counter.
func (s *Service) finish(rec Record, state State, errMsg string) {
	rec.State = state
	rec.Error = errMsg
	rec.FinishedUnix = s.opts.Clock.Now().Unix()
	if err := s.store.Put(rec); err != nil {
		s.opts.Logf("jobs: %s: journaling %s state: %v", rec.ID, state, err)
	}
	switch state {
	case StateDone:
		s.ins.done.Inc()
	case StateFailed:
		s.ins.failed.Inc()
	case StateCancelled:
		s.ins.cancelled.Inc()
	}
}

// frontOf extracts the quality/step-time Pareto front of the evaluated
// candidates (quality maximized, predicted train step time minimized).
func frontOf(res *core.Result) []FrontPoint {
	pts := make([]pareto.Point, 0, len(res.Candidates))
	for i, c := range res.Candidates {
		if len(c.Perf) == 0 {
			continue
		}
		pts = append(pts, pareto.Point{
			ID:      fmt.Sprintf("cand-%d", i),
			Quality: c.Quality,
			Cost:    c.Perf[0],
		})
	}
	front := pareto.Front(pts)
	if len(front) > maxFrontPoints {
		front = front[:maxFrontPoints]
	}
	out := make([]FrontPoint, len(front))
	for i, p := range front {
		out[i] = FrontPoint{ID: p.ID, Quality: p.Quality, Cost: p.Cost}
	}
	return out
}
