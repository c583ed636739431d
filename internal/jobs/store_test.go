package jobs

import (
	"path/filepath"
	"reflect"
	"testing"

	"h2onas/internal/checkpoint"
	"h2onas/internal/metrics"
)

func testRecord(id, tenant string, state State) Record {
	return Record{ID: id, Tenant: tenant, State: state, Spec: Spec{}.Normalize()}
}

func TestStoreReplayKeepsNewestRecordPerJob(t *testing.T) {
	fs := checkpoint.NewMemFS()
	st, err := OpenStore("root", StoreOptions{FS: fs, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	id := st.NextID()
	if id != "j-000000" {
		t.Fatalf("first ID = %q", id)
	}
	for _, state := range []State{StateQueued, StateRunning, StateDone} {
		if err := st.Put(testRecord(id, "alice", state)); err != nil {
			t.Fatal(err)
		}
	}

	st2, err := OpenStore("root", StoreOptions{FS: fs, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	rec, ok := st2.Get(id)
	if !ok || rec.State != StateDone || rec.Seq != 3 {
		t.Fatalf("replayed record = %+v, ok=%v; want done at seq 3", rec, ok)
	}
	if next := st2.NextID(); next != "j-000001" {
		t.Fatalf("NextID after replay = %q, want j-000001", next)
	}
}

func TestStoreReplaySkipsCorruptNewestRecord(t *testing.T) {
	fs := checkpoint.NewMemFS()
	reg := metrics.New()
	st, err := OpenStore("root", StoreOptions{FS: fs, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	id := st.NextID()
	for _, state := range []State{StateQueued, StateRunning} {
		if err := st.Put(testRecord(id, "alice", state)); err != nil {
			t.Fatal(err)
		}
	}
	// Flip bytes in the newest record: replay must fall back to seq 1.
	newest := filepath.Join("root", "journal", journalName(id, 2))
	data, ok := fs.ReadFile(newest)
	if !ok {
		t.Fatalf("journal record %s missing", newest)
	}
	data[len(data)-1] ^= 0xff
	fs.WriteFile(newest, data)

	st2, err := OpenStore("root", StoreOptions{FS: fs, Metrics: reg, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	rec, ok := st2.Get(id)
	if !ok || rec.State != StateQueued || rec.Seq != 1 {
		t.Fatalf("replayed record = %+v, ok=%v; want queued at seq 1", rec, ok)
	}
	if n := reg.Counter("jobs_journal_corrupt_skipped_total").Value(); n != 1 {
		t.Fatalf("corrupt-skipped counter = %d, want 1", n)
	}
	// Truncated-to-nothing record is skipped too.
	fs.WriteFile(newest, []byte("H2O"))
	st3, err := OpenStore("root", StoreOptions{FS: fs, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	if rec, ok := st3.Get(id); !ok || rec.State != StateQueued {
		t.Fatalf("after truncation, record = %+v, ok=%v", rec, ok)
	}
}

func TestStoreJournalRetention(t *testing.T) {
	fs := checkpoint.NewMemFS()
	st, err := OpenStore("root", StoreOptions{FS: fs, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	id := st.NextID()
	for i := 0; i < 5; i++ {
		if err := st.Put(testRecord(id, "alice", StateRunning)); err != nil {
			t.Fatal(err)
		}
	}
	names, err := fs.ReadDir(filepath.Join("root", "journal"))
	if err != nil {
		t.Fatal(err)
	}
	want := []string{journalName(id, 3), journalName(id, 4), journalName(id, 5)}
	if !reflect.DeepEqual(names, want) {
		t.Fatalf("journal holds %v, want %v", names, want)
	}
}

func TestWriteArtifactIsIdempotent(t *testing.T) {
	fs := checkpoint.NewMemFS()
	st, err := OpenStore("root", StoreOptions{FS: fs, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.WriteArtifact("j-000000", "result.json", []byte("first")); err != nil {
		t.Fatal(err)
	}
	// A re-run after an interruption must never change served bytes, even
	// if its recomputed result would differ.
	if err := st.WriteArtifact("j-000000", "result.json", []byte("second")); err != nil {
		t.Fatal(err)
	}
	f, err := st.OpenArtifact("j-000000", "result.json")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	buf := make([]byte, 16)
	n, _ := f.Read(buf)
	if string(buf[:n]) != "first" {
		t.Fatalf("artifact = %q, want the first write preserved", buf[:n])
	}
}
