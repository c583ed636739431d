package checkpoint

import (
	"errors"
	"fmt"
	"io"
	iofs "io/fs"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"h2onas/internal/metrics"
)

type fakeClock struct {
	now    time.Time
	sleeps []time.Duration
}

func (c *fakeClock) Now() time.Time        { return c.now }
func (c *fakeClock) Sleep(d time.Duration) { c.sleeps = append(c.sleeps, d) }

func memManager() (*Manager, *MemFS) {
	fs := NewMemFS()
	m := &Manager{
		Dir:   "ckpt",
		FS:    fs,
		Clock: &fakeClock{now: time.Unix(1754400000, 0)},
		Logf:  func(string, ...any) {},
	}
	return m, fs
}

func snapshotAt(step int64) *Snapshot {
	s := sampleSnapshot()
	s.Step = step
	return s
}

func TestManagerSaveLoadLatest(t *testing.T) {
	m, _ := memManager()
	for _, step := range []int64{3, 6, 9} {
		if _, err := m.Save(snapshotAt(step)); err != nil {
			t.Fatal(err)
		}
	}
	steps, err := m.List()
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(steps) != "[3 6 9]" {
		t.Fatalf("List = %v, want [3 6 9]", steps)
	}
	s, path, err := m.LoadLatest()
	if err != nil {
		t.Fatal(err)
	}
	if s.Step != 9 || !strings.HasSuffix(path, SnapshotName(9)) {
		t.Fatalf("LoadLatest = step %d from %s, want 9", s.Step, path)
	}
	if s.CreatedAtUnix != 1754400000 {
		t.Fatalf("CreatedAtUnix = %d, want clock stamp", s.CreatedAtUnix)
	}
}

func TestManagerEmptyDirIsErrNoCheckpoint(t *testing.T) {
	m, _ := memManager()
	if _, _, err := m.LoadLatest(); !errors.Is(err, ErrNoCheckpoint) {
		t.Fatalf("err = %v, want ErrNoCheckpoint", err)
	}
}

// readDirFailsOnce is a directory that exists but cannot be read, once:
// its first ReadDir fails with a permission error, not a missing one.
type readDirFailsOnce struct {
	FS
	failed bool
}

func (f *readDirFailsOnce) ReadDir(dir string) ([]string, error) {
	if !f.failed {
		f.failed = true
		return nil, &iofs.PathError{Op: "open", Path: dir, Err: iofs.ErrPermission}
	}
	return f.FS.ReadDir(dir)
}

// TestManagerUnreadableDirIsAnError: only a missing directory reads as
// empty. A snapshot directory that cannot be listed must fail the
// resume rather than look empty, which would restart the run from
// scratch and lose its progress.
func TestManagerUnreadableDirIsAnError(t *testing.T) {
	m, mem := memManager()
	if _, err := m.Save(snapshotAt(4)); err != nil {
		t.Fatal(err)
	}
	m.FS = &readDirFailsOnce{FS: mem}
	if _, _, err := m.LoadLatest(); !errors.Is(err, iofs.ErrPermission) {
		t.Fatalf("LoadLatest on an unreadable directory = %v, want the permission error", err)
	}
	if s, _, err := m.LoadLatest(); err != nil || s.Step != 4 {
		t.Fatalf("LoadLatest once readable = %v, %v; want step 4", s, err)
	}

	missing := &Manager{Dir: filepath.Join(t.TempDir(), "missing")}
	if steps, err := missing.List(); err != nil || len(steps) != 0 {
		t.Fatalf("List of a missing directory = %v, %v; want empty", steps, err)
	}
	if _, _, err := missing.LoadLatest(); !errors.Is(err, ErrNoCheckpoint) {
		t.Fatalf("LoadLatest of a missing directory = %v, want ErrNoCheckpoint", err)
	}
}

func TestManagerSkipsCorruptAndFallsBack(t *testing.T) {
	m, fs := memManager()
	var warnings []string
	m.Logf = func(format string, args ...any) { warnings = append(warnings, fmt.Sprintf(format, args...)) }
	m.Metrics = metrics.New()
	for _, step := range []int64{1, 2, 3} {
		if _, err := m.Save(snapshotAt(step)); err != nil {
			t.Fatal(err)
		}
	}
	// Corrupt the newest snapshot (flip a payload byte) and truncate the
	// second-newest: recovery must fall back to step 1.
	p3 := filepath.Join("ckpt", SnapshotName(3))
	p2 := filepath.Join("ckpt", SnapshotName(2))
	rewrite := func(path string, edit func([]byte) []byte) {
		r, err := fs.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		data, _ := io.ReadAll(r)
		if err := WriteFileAtomic(fs, path, edit(data)); err != nil {
			t.Fatal(err)
		}
	}
	rewrite(p3, func(data []byte) []byte { data[len(data)-1] ^= 0x01; return data })
	rewrite(p2, func(data []byte) []byte { return data[:len(data)/3] })

	s, path, err := m.LoadLatest()
	if err != nil {
		t.Fatal(err)
	}
	if s.Step != 1 || !strings.HasSuffix(path, SnapshotName(1)) {
		t.Fatalf("fell back to step %d (%s), want 1", s.Step, path)
	}
	if len(warnings) != 2 {
		t.Fatalf("logged %d warnings (%q), want 2", len(warnings), warnings)
	}
	if got := m.Metrics.Counter("checkpoint_corrupt_skipped_total").Value(); got != 2 {
		t.Fatalf("corrupt counter = %d, want 2", got)
	}
}

func TestManagerAllCorruptIsErrNoCheckpoint(t *testing.T) {
	m, fs := memManager()
	if _, err := m.Save(snapshotAt(1)); err != nil {
		t.Fatal(err)
	}
	if err := WriteFileAtomic(fs, filepath.Join("ckpt", SnapshotName(1)), []byte("garbage")); err != nil {
		t.Fatal(err)
	}
	if _, _, err := m.LoadLatest(); !errors.Is(err, ErrNoCheckpoint) {
		t.Fatalf("err = %v, want ErrNoCheckpoint", err)
	}
}

func TestManagerRetainPrunesOldSnapshots(t *testing.T) {
	m, _ := memManager()
	m.Retain = 2
	for step := int64(1); step <= 5; step++ {
		if _, err := m.Save(snapshotAt(step)); err != nil {
			t.Fatal(err)
		}
	}
	steps, _ := m.List()
	if fmt.Sprint(steps) != "[4 5]" {
		t.Fatalf("retained %v, want [4 5]", steps)
	}
}

// TestManagerTruncatedWriteIsInvisible is the crash-mid-write scenario:
// the write fails partway, so no snapshot may become visible under a
// final name and recovery must keep using the previous one.
func TestManagerTruncatedWriteIsInvisible(t *testing.T) {
	m, fs := memManager()
	if _, err := m.Save(snapshotAt(1)); err != nil {
		t.Fatal(err)
	}
	m.FS = &FaultFS{FS: fs, WriteLimit: func(name string) int {
		if strings.Contains(name, SnapshotName(2)) {
			return 40 // fail after the header
		}
		return -1
	}}
	if _, err := m.Save(snapshotAt(2)); err == nil {
		t.Fatal("truncated write reported success")
	}
	steps, _ := m.List()
	if fmt.Sprint(steps) != "[1]" {
		t.Fatalf("visible snapshots %v after failed write, want [1]", steps)
	}
	s, _, err := m.LoadLatest()
	if err != nil || s.Step != 1 {
		t.Fatalf("LoadLatest after failed write = %v, %v; want step 1", s, err)
	}
	// A later healthy save must succeed despite the leftover state.
	m.FS = fs
	if _, err := m.Save(snapshotAt(2)); err != nil {
		t.Fatal(err)
	}
	if s, _, _ := m.LoadLatest(); s.Step != 2 {
		t.Fatalf("step = %d after healthy save, want 2", s.Step)
	}
}

func TestManagerFailedRenameIsInvisible(t *testing.T) {
	m, fs := memManager()
	m.FS = &FaultFS{FS: fs, FailRename: func(oldPath, newPath string) error {
		return errors.New("injected rename failure")
	}}
	if _, err := m.Save(snapshotAt(1)); err == nil {
		t.Fatal("failed rename reported success")
	}
	if steps, _ := m.List(); len(steps) != 0 {
		t.Fatalf("visible snapshots %v after failed rename, want none", steps)
	}
}

func TestManagerFailedSyncIsInvisible(t *testing.T) {
	m, fs := memManager()
	m.FS = &FaultFS{FS: fs, FailSync: func(name string) error {
		return errors.New("injected sync failure")
	}}
	if _, err := m.Save(snapshotAt(1)); err == nil {
		t.Fatal("failed sync reported success")
	}
	if steps, _ := m.List(); len(steps) != 0 {
		t.Fatalf("visible snapshots %v after failed sync, want none", steps)
	}
}

func TestManagerOnRealFilesystem(t *testing.T) {
	m := &Manager{Dir: filepath.Join(t.TempDir(), "ckpt")}
	want := snapshotAt(7)
	path, err := m.Save(want)
	if err != nil {
		t.Fatal(err)
	}
	got, err := m.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Step != 7 || got.Fingerprint != want.Fingerprint {
		t.Fatalf("loaded step %d fingerprint %q", got.Step, got.Fingerprint)
	}
	if s, _, err := m.LoadLatest(); err != nil || s.Step != 7 {
		t.Fatalf("LoadLatest = %v, %v", s, err)
	}
}

func TestStepFromName(t *testing.T) {
	cases := map[string]bool{
		SnapshotName(0):              true,
		SnapshotName(123456):         true,
		"step-000000000003.ckpt.tmp": false,
		"step-3.ckpt":                false,
		"other.txt":                  false,
		"step-00000000000x.ckpt":     false,
	}
	for name, want := range cases {
		if _, ok := stepFromName(name); ok != want {
			t.Errorf("stepFromName(%q) ok = %v, want %v", name, ok, want)
		}
	}
}
