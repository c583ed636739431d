package jobs

import (
	"fmt"
	"io"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"

	"h2onas/internal/checkpoint"
	"h2onas/internal/metrics"
)

// Store is the journaled job database on the checkpoint FS seam. Layout
// under the root (flat directories only, so the in-memory test FS — whose
// ReadDir matches exact parent directories — sees the same structure the
// real filesystem does):
//
//	<root>/journal/<id>.<seq>.jrec   sequenced state records (see record.go)
//	<root>/ckpt/<id>/                the job's search snapshots (core.Search)
//	<root>/artifacts/<id>/<name>     result files served by the HTTP API
//
// Every journal write is atomic (checkpoint.WriteFileAtomic) and
// checksummed; replay keeps the newest decodable sequence per job and
// counts the rest as corrupt-skipped, so a crash mid-write costs one
// record, never the job.
type Store struct {
	root    string
	fs      checkpoint.FS
	clock   checkpoint.Clock
	logf    func(format string, args ...any)
	corrupt *metrics.Counter

	mu     sync.Mutex
	recs   map[string]*Record
	nextID int
}

// retain is how many snapshots and how many journal records the service
// keeps per job: the newest one plus two fallbacks for corruption.
const retain = 3

// StoreOptions configures OpenStore. Zero values mean: real filesystem,
// wall clock, no metrics, standard log.
type StoreOptions struct {
	FS      checkpoint.FS
	Clock   checkpoint.Clock
	Metrics *metrics.Registry
	Logf    func(format string, args ...any)
}

// OpenStore replays the journal under root and returns the store. A
// missing or empty root is a fresh store, not an error.
func OpenStore(root string, opts StoreOptions) (*Store, error) {
	if root == "" {
		return nil, fmt.Errorf("jobs: store root must not be empty")
	}
	st := &Store{
		root:    root,
		fs:      opts.FS,
		clock:   opts.Clock,
		logf:    opts.Logf,
		corrupt: opts.Metrics.Counter("jobs_journal_corrupt_skipped_total"),
		recs:    make(map[string]*Record),
	}
	if st.fs == nil {
		st.fs = checkpoint.OS()
	}
	if st.clock == nil {
		st.clock = checkpoint.RealClock()
	}
	if st.logf == nil {
		st.logf = func(string, ...any) {}
	}
	if err := st.replay(); err != nil {
		return nil, err
	}
	return st, nil
}

func (st *Store) journalDir() string { return filepath.Join(st.root, "journal") }

// CheckpointDir returns the job's private snapshot directory. Scoping
// every job to its own subdirectory is what makes concurrent retention
// pruning safe (see checkpoint.Manager and
// TestConcurrentPruneAcrossJobDirsIsScoped).
func (st *Store) CheckpointDir(id string) string { return filepath.Join(st.root, "ckpt", id) }

func (st *Store) artifactPath(id, name string) string {
	return filepath.Join(st.root, "artifacts", id, name)
}

// journalName builds "<id>.<seq>.jrec"; the zero-padded sequence keeps
// lexicographic and numeric order in agreement.
func journalName(id string, seq uint64) string {
	return fmt.Sprintf("%s.%09d.jrec", id, seq)
}

// parseJournalName inverts journalName; ok is false for anything else,
// including the write protocol's temporary files.
func parseJournalName(name string) (id string, seq uint64, ok bool) {
	if !strings.HasSuffix(name, ".jrec") {
		return "", 0, false
	}
	base := strings.TrimSuffix(name, ".jrec")
	dot := strings.LastIndexByte(base, '.')
	if dot <= 0 || len(base)-dot-1 != 9 {
		return "", 0, false
	}
	n, err := strconv.ParseUint(base[dot+1:], 10, 64)
	if err != nil {
		return "", 0, false
	}
	return base[:dot], n, true
}

// idNumber parses the numeric part of a "j-000123" job ID.
func idNumber(id string) (int, bool) {
	if !strings.HasPrefix(id, "j-") {
		return 0, false
	}
	n, err := strconv.Atoi(strings.TrimPrefix(id, "j-"))
	if err != nil || n < 0 {
		return 0, false
	}
	return n, true
}

// replay loads the newest decodable record of every job. Corrupt or
// unreadable records are skipped with a logged warning and a counter
// bump; only if every record of a job is unusable is the job lost.
func (st *Store) replay() error {
	names, err := st.fs.ReadDir(st.journalDir())
	if err != nil {
		// Missing directory: fresh store.
		return nil
	}
	// Newest-first per job: sort by (id, seq descending) and take the
	// first record of each job that decodes.
	type entry struct {
		id   string
		seq  uint64
		name string
	}
	var entries []entry
	for _, name := range names {
		if id, seq, ok := parseJournalName(name); ok {
			entries = append(entries, entry{id, seq, name})
		}
	}
	sort.Slice(entries, func(i, j int) bool {
		if entries[i].id != entries[j].id {
			return entries[i].id < entries[j].id
		}
		return entries[i].seq > entries[j].seq
	})
	for _, e := range entries {
		if _, done := st.recs[e.id]; done {
			continue
		}
		rec, err := st.readRecord(e.name)
		if err != nil {
			st.corrupt.Inc()
			st.logf("jobs: skipping unusable journal record %s: %v", e.name, err)
			continue
		}
		rec.Seq = e.seq
		st.recs[e.id] = rec
	}
	for id := range st.recs {
		if n, ok := idNumber(id); ok && n >= st.nextID {
			st.nextID = n + 1
		}
	}
	return nil
}

func (st *Store) readRecord(name string) (*Record, error) {
	f, err := st.fs.Open(filepath.Join(st.journalDir(), name))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return decodeRecord(f)
}

// NextID allocates the next job ID.
func (st *Store) NextID() string {
	st.mu.Lock()
	defer st.mu.Unlock()
	id := fmt.Sprintf("j-%06d", st.nextID)
	st.nextID++
	return id
}

// Put journals the record durably (atomic write, fsync before rename) and
// installs it in memory. It assigns the record's next sequence number and
// prunes journal records older than the retention window.
func (st *Store) Put(rec Record) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	if prev, ok := st.recs[rec.ID]; ok {
		rec.Seq = prev.Seq + 1
	} else {
		rec.Seq = 1
	}
	data, err := encodeRecord(&rec)
	if err != nil {
		return fmt.Errorf("jobs: encoding record %s: %w", rec.ID, err)
	}
	dir := st.journalDir()
	if err := st.fs.MkdirAll(dir); err != nil {
		return fmt.Errorf("jobs: creating %s: %w", dir, err)
	}
	final := filepath.Join(dir, journalName(rec.ID, rec.Seq))
	if err := checkpoint.WriteFileAtomic(st.fs, final, data); err != nil {
		return fmt.Errorf("jobs: journaling %s: %w", rec.ID, err)
	}
	stored := rec.clone()
	st.recs[rec.ID] = &stored
	// Sequences are contiguous per job, so pruning exactly the record
	// that fell out of the window keeps the newest retain records.
	if rec.Seq > retain {
		old := filepath.Join(dir, journalName(rec.ID, rec.Seq-retain))
		if err := st.fs.Remove(old); err != nil {
			st.logf("jobs: pruning %s: %v", old, err)
		}
	}
	return nil
}

// Get returns a copy of the job's newest record.
func (st *Store) Get(id string) (Record, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	rec, ok := st.recs[id]
	if !ok {
		return Record{}, false
	}
	return rec.clone(), true
}

// List returns copies of every record, ordered by job ID (submission
// order).
func (st *Store) List() []Record {
	st.mu.Lock()
	defer st.mu.Unlock()
	out := make([]Record, 0, len(st.recs))
	for _, rec := range st.recs {
		out = append(out, rec.clone())
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// WriteArtifact persists a result file atomically — unless it already
// exists, in which case the write is skipped: artifacts are written only
// by the job's own deterministic completion, and the atomic protocol
// guarantees an existing artifact is complete. The skip makes completion
// idempotent across the one edge where a resumed run could diverge (a
// resume landing exactly on the final step re-evaluates final quality on
// a prefetch-sensitive batch boundary).
func (st *Store) WriteArtifact(id, name string, data []byte) error {
	path := st.artifactPath(id, name)
	if f, err := st.fs.Open(path); err == nil {
		f.Close()
		return nil
	}
	if err := st.fs.MkdirAll(filepath.Dir(path)); err != nil {
		return fmt.Errorf("jobs: creating artifact dir for %s: %w", id, err)
	}
	if err := checkpoint.WriteFileAtomic(st.fs, path, data); err != nil {
		return fmt.Errorf("jobs: writing artifact %s/%s: %w", id, name, err)
	}
	return nil
}

// OpenArtifact opens a previously written artifact for reading.
func (st *Store) OpenArtifact(id, name string) (io.ReadCloser, error) {
	return st.fs.Open(st.artifactPath(id, name))
}
