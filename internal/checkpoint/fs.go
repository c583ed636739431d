// Package checkpoint is the fault-tolerant persistence layer of the
// search runtime: versioned, checksummed, atomically-written full-state
// snapshots of a running search, plus the recovery logic that finds the
// newest valid snapshot and skips corrupted or partially-written ones.
//
// The package deliberately knows nothing about the search itself — a
// Snapshot is a dumb bag of state vectors — so it sits below
// internal/core in the dependency order and every search flavour can
// share it. Filesystem and clock access go through small interfaces so
// tests can inject truncated writes, failed renames and fake time.
package checkpoint

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// File is the writable-file surface Manager needs: streaming writes, a
// durability barrier, and close.
type File interface {
	io.Writer
	Sync() error
	Close() error
}

// FS abstracts the filesystem operations of the checkpoint write/read
// paths. The production implementation is OS(); tests substitute MemFS
// (hermetic, no disk) or FaultFS (injected failures).
type FS interface {
	MkdirAll(dir string) error
	Create(name string) (File, error)
	Open(name string) (io.ReadCloser, error)
	Rename(oldPath, newPath string) error
	Remove(name string) error
	// ReadDir returns the base names of the directory's entries. A
	// missing directory is reported as an error satisfying os.IsNotExist
	// semantics for the OS implementation; MemFS returns an empty list.
	ReadDir(dir string) ([]string, error)
}

// WriteFileAtomic is the one durable-write protocol of the repository
// (snapshots, the jobs journal, job artifacts): write data to a temporary
// sibling of path, fsync, close, and rename it into place. A crash at any
// point leaves either the old file or the new one under path, never a
// torn one — plus at most a temporary file, whose suffix keeps it
// invisible to every reader's name parser.
func WriteFileAtomic(fs FS, path string, data []byte) error {
	tmp := path + ".tmp"
	f, err := fs.Create(tmp)
	if err != nil {
		return fmt.Errorf("creating %s: %w", tmp, err)
	}
	_, err = f.Write(data)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		// Best-effort cleanup; a leftover is ignored either way.
		_ = fs.Remove(tmp)
		return fmt.Errorf("writing %s: %w", tmp, err)
	}
	if err := fs.Rename(tmp, path); err != nil {
		_ = fs.Remove(tmp)
		return fmt.Errorf("publishing %s: %w", path, err)
	}
	return nil
}

// Clock abstracts time for snapshot stamps and retry backoff sleeps.
type Clock interface {
	Now() time.Time
	Sleep(d time.Duration)
}

// OS returns the real-filesystem FS.
func OS() FS { return osFS{} }

type osFS struct{}

func (osFS) MkdirAll(dir string) error { return os.MkdirAll(dir, 0o755) }

func (osFS) Create(name string) (File, error) { return os.Create(name) }

func (osFS) Open(name string) (io.ReadCloser, error) { return os.Open(name) }

func (osFS) Rename(oldPath, newPath string) error { return os.Rename(oldPath, newPath) }

func (osFS) Remove(name string) error { return os.Remove(name) }

func (osFS) ReadDir(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(entries))
	for _, e := range entries {
		names = append(names, e.Name())
	}
	return names, nil
}

// RealClock returns the wall clock.
func RealClock() Clock { return realClock{} }

type realClock struct{}

func (realClock) Now() time.Time        { return time.Now() }
func (realClock) Sleep(d time.Duration) { time.Sleep(d) }

// MemFS is a hermetic in-memory FS for tests. Writes become visible
// incrementally (like a real file), so a crash mid-write leaves a
// partial file behind — exactly the failure mode the atomic
// write-to-temp-then-rename protocol must survive.
type MemFS struct {
	mu    sync.Mutex
	files map[string][]byte
}

// NewMemFS returns an empty in-memory filesystem.
func NewMemFS() *MemFS { return &MemFS{files: make(map[string][]byte)} }

func (m *MemFS) MkdirAll(dir string) error { return nil }

func (m *MemFS) Create(name string) (File, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.files[filepath.Clean(name)] = nil
	return &memFile{fs: m, name: filepath.Clean(name)}, nil
}

func (m *MemFS) Open(name string) (io.ReadCloser, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	data, ok := m.files[filepath.Clean(name)]
	if !ok {
		return nil, fmt.Errorf("memfs: open %s: %w", name, os.ErrNotExist)
	}
	return io.NopCloser(strings.NewReader(string(data))), nil
}

func (m *MemFS) Rename(oldPath, newPath string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	data, ok := m.files[filepath.Clean(oldPath)]
	if !ok {
		return fmt.Errorf("memfs: rename %s: %w", oldPath, os.ErrNotExist)
	}
	delete(m.files, filepath.Clean(oldPath))
	m.files[filepath.Clean(newPath)] = data
	return nil
}

func (m *MemFS) Remove(name string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.files[filepath.Clean(name)]; !ok {
		return fmt.Errorf("memfs: remove %s: %w", name, os.ErrNotExist)
	}
	delete(m.files, filepath.Clean(name))
	return nil
}

func (m *MemFS) ReadDir(dir string) ([]string, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	clean := filepath.Clean(dir)
	var names []string
	for name := range m.files {
		if filepath.Dir(name) == clean {
			names = append(names, filepath.Base(name))
		}
	}
	sort.Strings(names)
	return names, nil
}

type memFile struct {
	fs     *MemFS
	name   string
	closed bool
}

func (f *memFile) Write(p []byte) (int, error) {
	if f.closed {
		return 0, fmt.Errorf("memfs: write to closed file %s", f.name)
	}
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	f.fs.files[f.name] = append(f.fs.files[f.name], p...)
	return len(p), nil
}

func (f *memFile) Sync() error { return nil }

func (f *memFile) Close() error {
	f.closed = true
	return nil
}

// FaultFS wraps an FS and injects write-path failures. Each hook, when
// non-nil, is consulted before delegating; returning a non-nil error
// simulates the corresponding fault. WriteLimit simulates a crash or a
// full disk mid-write: when it returns n ≥ 0 for a file name, writes to
// that file succeed only for the first n bytes in total and then fail,
// leaving a truncated file behind.
type FaultFS struct {
	FS
	FailCreate func(name string) error
	FailRename func(oldPath, newPath string) error
	FailSync   func(name string) error
	WriteLimit func(name string) int // < 0 means unlimited
}

func (f *FaultFS) Create(name string) (File, error) {
	if f.FailCreate != nil {
		if err := f.FailCreate(name); err != nil {
			return nil, err
		}
	}
	inner, err := f.FS.Create(name)
	if err != nil {
		return nil, err
	}
	limit := -1
	if f.WriteLimit != nil {
		limit = f.WriteLimit(name)
	}
	return &faultFile{File: inner, fs: f, name: name, limit: limit}, nil
}

func (f *FaultFS) Rename(oldPath, newPath string) error {
	if f.FailRename != nil {
		if err := f.FailRename(oldPath, newPath); err != nil {
			return err
		}
	}
	return f.FS.Rename(oldPath, newPath)
}

type faultFile struct {
	File
	fs      *FaultFS
	name    string
	limit   int // < 0 unlimited
	written int
}

func (f *faultFile) Write(p []byte) (int, error) {
	if f.limit >= 0 && f.written+len(p) > f.limit {
		keep := f.limit - f.written
		if keep < 0 {
			keep = 0
		}
		n, _ := f.File.Write(p[:keep])
		f.written += n
		return n, fmt.Errorf("faultfs: injected write failure on %s after %d bytes", f.name, f.written)
	}
	n, err := f.File.Write(p)
	f.written += n
	return n, err
}

func (f *faultFile) Sync() error {
	if f.fs.FailSync != nil {
		if err := f.fs.FailSync(f.name); err != nil {
			return err
		}
	}
	return f.File.Sync()
}
