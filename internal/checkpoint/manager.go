package checkpoint

import (
	"errors"
	"fmt"
	"io/fs"
	"log"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"h2onas/internal/metrics"
)

// ErrNoCheckpoint reports that a directory holds no loadable snapshot.
var ErrNoCheckpoint = errors.New("checkpoint: no valid checkpoint found")

// Manager persists and recovers snapshots in a directory.
//
// Save is atomic with respect to crashes (see WriteFileAtomic): a reader
// never observes a half-written snapshot under a final name — the worst
// a crash can leave behind is a stale temporary file that recovery
// ignores.
// LoadLatest walks snapshots newest-first and skips (with a logged
// warning) any that fail validation, so a corrupted newest snapshot
// degrades to the previous one instead of killing the run.
//
// Dir must be exclusive to one logical writer: snapshot names encode only
// the step, so two runs sharing a directory would overwrite each other's
// files and Retain pruning would delete snapshots the other run still
// needs. Multi-job deployments (internal/jobs) give every job its own
// subdirectory under a shared root — managers scoped to sibling
// directories save and prune concurrently without interference (see
// TestConcurrentPruneAcrossJobDirsIsScoped).
type Manager struct {
	// Dir is the snapshot directory.
	Dir string
	// FS overrides the filesystem (nil = the real one).
	FS FS
	// Clock overrides time (nil = wall clock); used to stamp snapshots.
	Clock Clock
	// Retain keeps only the newest N snapshots after each Save
	// (0 keeps all).
	Retain int
	// Metrics, when non-nil, receives save/load counters, save latency
	// and snapshot size.
	Metrics *metrics.Registry
	// Logf receives corruption warnings (nil = log.Printf).
	Logf func(format string, args ...any)
}

func (m *Manager) fs() FS {
	if m.FS != nil {
		return m.FS
	}
	return OS()
}

func (m *Manager) clock() Clock {
	if m.Clock != nil {
		return m.Clock
	}
	return RealClock()
}

func (m *Manager) logf(format string, args ...any) {
	if m.Logf != nil {
		m.Logf(format, args...)
		return
	}
	log.Printf(format, args...)
}

// SnapshotName returns the file name of the step's snapshot. The
// zero-padded step makes lexicographic and numeric order agree.
func SnapshotName(step int64) string { return fmt.Sprintf("step-%012d.ckpt", step) }

// stepFromName parses a snapshot file name; ok is false for anything
// else (including the write-protocol's temporary files).
func stepFromName(name string) (step int64, ok bool) {
	const prefix, suffix = "step-", ".ckpt"
	if len(name) != len(prefix)+12+len(suffix) ||
		!strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
		return 0, false
	}
	digits := name[len(prefix) : len(name)-len(suffix)]
	s, err := strconv.ParseInt(digits, 10, 64)
	if err != nil || s < 0 {
		return 0, false
	}
	return s, true
}

// Save writes the snapshot atomically and returns its final path. It
// stamps s.CreatedAtUnix from the manager's clock, and prunes old
// snapshots per Retain after a successful write.
func (m *Manager) Save(s *Snapshot) (string, error) {
	span := m.Metrics.Histogram("checkpoint_save_seconds").Start()
	defer span.End()
	fs := m.fs()
	if err := fs.MkdirAll(m.Dir); err != nil {
		return "", fmt.Errorf("checkpoint: creating %s: %w", m.Dir, err)
	}
	s.CreatedAtUnix = m.clock().Now().Unix()
	data := EncodeBytes(s)
	final := filepath.Join(m.Dir, SnapshotName(s.Step))
	if err := WriteFileAtomic(fs, final, data); err != nil {
		m.Metrics.Counter("checkpoint_save_failures_total").Inc()
		return "", fmt.Errorf("checkpoint: %w", err)
	}
	m.Metrics.Counter("checkpoint_saves_total").Inc()
	m.Metrics.Gauge("checkpoint_bytes").Set(float64(len(data)))
	m.prune()
	return final, nil
}

// List returns the steps of all snapshots present, ascending. A missing
// directory is an empty list, not an error; a directory that exists but
// cannot be read is an error, never an empty list.
func (m *Manager) List() ([]int64, error) {
	names, err := m.fs().ReadDir(m.Dir)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("checkpoint: listing %s: %w", m.Dir, err)
	}
	var steps []int64
	for _, name := range names {
		if step, ok := stepFromName(name); ok {
			steps = append(steps, step)
		}
	}
	sort.Slice(steps, func(i, j int) bool { return steps[i] < steps[j] })
	return steps, nil
}

// Load reads and validates one snapshot file.
func (m *Manager) Load(path string) (*Snapshot, error) {
	f, err := m.fs().Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Decode(f)
}

// LoadLatest returns the newest valid snapshot in Dir and its path.
// Corrupted, truncated, or unreadable snapshots are skipped with a
// logged warning; if nothing valid remains it returns ErrNoCheckpoint.
// A directory it cannot list is an error: reading it as empty would
// restart the run from scratch.
func (m *Manager) LoadLatest() (*Snapshot, string, error) {
	steps, err := m.List()
	if err != nil {
		return nil, "", err
	}
	for i := len(steps) - 1; i >= 0; i-- {
		path := filepath.Join(m.Dir, SnapshotName(steps[i]))
		s, err := m.Load(path)
		if err != nil {
			m.Metrics.Counter("checkpoint_corrupt_skipped_total").Inc()
			m.logf("checkpoint: skipping unusable snapshot %s: %v", path, err)
			continue
		}
		m.Metrics.Counter("checkpoint_loads_total").Inc()
		return s, path, nil
	}
	return nil, "", ErrNoCheckpoint
}

// prune removes all but the newest Retain snapshots (best effort).
func (m *Manager) prune() {
	if m.Retain <= 0 {
		return
	}
	steps, _ := m.List()
	if len(steps) <= m.Retain {
		return
	}
	for _, step := range steps[:len(steps)-m.Retain] {
		path := filepath.Join(m.Dir, SnapshotName(step))
		if err := m.fs().Remove(path); err != nil {
			m.logf("checkpoint: pruning %s: %v", path, err)
		}
	}
}
