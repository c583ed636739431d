package jobs

import (
	"bytes"
	"path/filepath"
	"reflect"
	"testing"

	"h2onas/internal/wire/wiretest"
)

func goldenRecord() *Record {
	return &Record{
		ID: "j-000042", Tenant: "alice", Seq: 7, State: StateDone,
		Spec:          Spec{Strategy: "evolution", Steps: 24, Seed: 9}.Normalize(),
		SubmittedUnix: 1754400000, StartedUnix: 1754400003, FinishedUnix: 1754400060,
		Attempts: 2, Resumes: 1,
		Front:     []FrontPoint{{ID: "c-17", Quality: 0.8125, Cost: 0.00125}, {ID: "c-3", Quality: 0.75, Cost: 0.001}},
		Artifacts: []string{"result.json"},
	}
}

// TestRecordBytesMatchGolden pins the H2OJOBRC journal format: the fixed
// record must encode to exactly the bytes the pre-internal/wire
// encodeRecord produced, so a -jobs-dir written by an older binary
// replays under this one.
func TestRecordBytesMatchGolden(t *testing.T) {
	want := wiretest.Hex(t, filepath.Join("testdata", "record.hex"))
	got, err := encodeRecord(goldenRecord())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("record bytes moved:\n got %x\nwant %x", got, want)
	}
	rec, err := decodeRecord(bytes.NewReader(want))
	if err != nil {
		t.Fatalf("decoding the golden record: %v", err)
	}
	if !reflect.DeepEqual(rec, goldenRecord()) {
		t.Fatalf("golden record decoded to %+v", rec)
	}
}

// FuzzDecodeRecord throws arbitrary bytes at the journal record decoder:
// it returns an error or a record that re-encodes and re-decodes to
// itself — it never panics and never trusts a declared length.
func FuzzDecodeRecord(f *testing.F) {
	valid := wiretest.Hex(f, filepath.Join("testdata", "record.hex"))
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(valid[:24])
	f.Add([]byte("H2OJOBRC"))
	f.Add([]byte{})
	flipped := append([]byte(nil), valid...)
	flipped[30] ^= 0x20
	f.Add(flipped)
	f.Fuzz(func(t *testing.T, data []byte) {
		rec, err := decodeRecord(bytes.NewReader(data))
		if err != nil {
			return
		}
		re, err := encodeRecord(rec)
		if err != nil {
			t.Fatalf("re-encoding a decoded record: %v", err)
		}
		rec2, err := decodeRecord(bytes.NewReader(re))
		if err != nil {
			t.Fatalf("re-decoding a re-encoded record: %v", err)
		}
		if !reflect.DeepEqual(rec, rec2) {
			t.Fatalf("record round trip diverged:\n first %+v\nsecond %+v", rec, rec2)
		}
	})
}
