package jobs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"

	"h2onas/internal/wire"
)

// State is a job's position in the lifecycle
// queued → running → {done, failed, cancelled}. A running job that loses
// its process goes back to queued on recovery; a parked job (graceful
// drain) is written back as queued deliberately, so restart and crash
// share one re-entry path.
type State string

const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StateDone      State = "done"
	StateFailed    State = "failed"
	StateCancelled State = "cancelled"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// FrontPoint is one point of a finished job's quality/step-time Pareto
// front (quality maximized, cost = predicted train step time minimized).
type FrontPoint struct {
	ID      string  `json:"id"`
	Quality float64 `json:"quality"`
	Cost    float64 `json:"cost"`
}

// Record is one job's durable state. Every mutation is journaled as a
// fresh sequenced record; replay keeps the newest valid sequence per job,
// so a torn write of record N falls back to record N-1 instead of losing
// the job.
type Record struct {
	// ID names the job ("j-000001"); IDs are dense and ordered by
	// submission, which recovery relies on to re-enqueue fairly.
	ID string `json:"id"`
	// Tenant is the submitting tenant; all API access is scoped to it.
	Tenant string `json:"tenant"`
	// Seq is the journal sequence number of this record (monotonic per
	// job). Assigned by the store on Put.
	Seq uint64 `json:"seq"`
	// State is the lifecycle position this record witnesses.
	State State `json:"state"`
	// Spec is the normalized search specification.
	Spec Spec `json:"spec"`

	SubmittedUnix int64 `json:"submitted_unix"`
	StartedUnix   int64 `json:"started_unix,omitempty"`
	FinishedUnix  int64 `json:"finished_unix,omitempty"`

	// Attempts counts how many times a worker picked the job up; Resumes
	// counts recoveries of an interrupted run (crash or park). A done job
	// with Resumes > 0 produced the same result bytes it would have with
	// Resumes == 0.
	Attempts int `json:"attempts"`
	Resumes  int `json:"resumes"`

	// Error is the failure message of a failed job.
	Error string `json:"error,omitempty"`
	// Front is the finished job's Pareto front over its evaluated
	// candidates. Informational: a resumed run's candidate pool starts at
	// the snapshot, so Front may differ across interruptions and is kept
	// out of the byte-deterministic result artifact.
	Front []FrontPoint `json:"front,omitempty"`
	// Artifacts lists the files servable under /jobs/{id}/artifacts/.
	Artifacts []string `json:"artifacts,omitempty"`
}

// clone returns a deep copy so callers can't mutate store state.
func (r *Record) clone() Record {
	c := *r
	c.Front = append([]FrontPoint(nil), r.Front...)
	c.Artifacts = append([]string(nil), r.Artifacts...)
	return c
}

// A journal record file is one internal/wire frame — magic "H2OJOBRC",
// version, payload length, CRC32 (24 header bytes) — whose payload is the
// Record as JSON. The checksum means a truncated or torn journal write
// is detected and skipped during replay before any state is trusted; a
// record is a few KB of JSON, so a declared size in the megabytes is
// rejected outright.
var recordFormat = wire.Format{Magic: "H2OJOBRC", Version: 1, MaxPayload: 16 << 20}

// encodeRecord returns the record's journal wire encoding.
func encodeRecord(r *Record) ([]byte, error) {
	payload, err := json.Marshal(r)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	// bytes.Buffer writes cannot fail.
	_ = wire.WriteFrame(&buf, recordFormat, nil, payload)
	return buf.Bytes(), nil
}

// decodeRecord reads one journal record, validating magic, version,
// length and checksum. Any malformed input is an error the replay loop
// skips — never a panic, never silently-loaded garbage.
func decodeRecord(rd io.Reader) (*Record, error) {
	_, payload, err := wire.ReadFileFrame(rd, recordFormat)
	if err != nil {
		return nil, fmt.Errorf("jobs: unusable record: %w", err)
	}
	var r Record
	if err := json.Unmarshal(payload, &r); err != nil {
		return nil, fmt.Errorf("jobs: corrupt record payload: %w", err)
	}
	if r.ID == "" {
		return nil, fmt.Errorf("jobs: record without an ID")
	}
	return &r, nil
}
