package checkpoint

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"reflect"
	"testing"

	"h2onas/internal/nn"
	"h2onas/internal/wire"
)

// sampleSnapshot builds a representative snapshot with every field
// populated — every kind of param state, and non-finite floats, which
// must round-trip bit-for-bit.
func sampleSnapshot() *Snapshot {
	return &Snapshot{
		Step:            17,
		BatchesConsumed: 51,
		Fingerprint:     "core.Search/v1 space=test/3/abc shards=3 batch=16",
		RNG:             0xdeadbeefcafef00d,
		Strategy:        "reinforce",
		StrategyState:   []byte{0x02, 0x00, 0x00, 0x00, 0xff, 0x7f},
		Adam: nn.AdamState{T: 17, Params: []nn.ParamState{
			{Kind: nn.Whole, W: []float64{1, 2, 3, 4}, M: []float64{0.1, 0.2, 0.3, 0.4}, V: []float64{1, 1, 1, 1}},
			{Kind: nn.Unstepped},
			{Kind: nn.SteppedRows, Rows: []int32{0, 7}, W: []float64{math.Inf(1), math.SmallestNonzeroFloat64}, M: []float64{1e-300, -1e300}, V: []float64{3, 4}},
		}},
		History: []StepRecord{
			{Step: 0, MeanReward: -0.25, MeanQ: 0.1, Entropy: 12.5, Confidence: 0.2},
			{Step: 1, MeanReward: 0.5, MeanQ: 0.2, Entropy: 11, Confidence: 0.25},
		},
		CreatedAtUnix: 1754400000,
	}
}

// legacySnapshot is sampleSnapshot as a v1/v2 file could carry it:
// every param whole.
func legacySnapshot() *Snapshot {
	s := sampleSnapshot()
	s.Adam.Params = []nn.ParamState{
		s.Adam.Params[0],
		{Kind: nn.Whole, W: []float64{-0.5}, M: []float64{0}, V: []float64{2}},
		{Kind: nn.Whole, W: []float64{math.Inf(1), math.SmallestNonzeroFloat64}, M: []float64{1e-300, -1e300}, V: []float64{3, 4}},
	}
	return s
}

// encodeLegacyBytes writes s, whose params must all be whole, in the
// version-1 or version-2 wire format: the typed controller fields and the
// policy logits v1 carried (filled with fixed values), then every param's
// weights and moments as three matrices; v2 appends the strategy fields.
// Used to pin backward compatibility.
func encodeLegacyBytes(version uint32, s *Snapshot) []byte {
	e := wire.Enc{}
	e.U64(uint64(s.Step))
	e.U64(uint64(s.BatchesConsumed))
	e.U64(uint64(s.CreatedAtUnix))
	e.U64(s.RNG)
	e.Str(s.Fingerprint)
	e.F64(0.375) // controller baseline
	e.Bool(true) // baseline set
	e.U64(9)     // controller steps
	e.U64(uint64(s.Adam.T))
	e.Mat([][]float64{{0.25, -1.5, 3}, {0, 0.125}}) // policy logits
	var w, m, v [][]float64
	for _, ps := range s.Adam.Params {
		if ps.Kind != nn.Whole {
			panic("legacy snapshots carry every param whole")
		}
		w, m, v = append(w, ps.W), append(m, ps.M), append(v, ps.V)
	}
	e.Mat(w)
	e.Mat(m)
	e.Mat(v)
	e.U32(uint32(len(s.History)))
	for _, h := range s.History {
		e.U64(uint64(h.Step))
		e.F64(h.MeanReward)
		e.F64(h.MeanQ)
		e.F64(h.Entropy)
		e.F64(h.Confidence)
	}
	if version >= 2 {
		e.Str(s.Strategy)
		e.Bytes(s.StrategyState)
	}
	var buf bytes.Buffer
	if err := wire.WriteFrame(&buf, wire.Format{Magic: magic, Version: version, MaxPayload: maxPayload}, nil, e.Buf); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

// TestDecodeLegacyV1 pins that version-1 snapshot files — written before
// the strategy fields existed — still decode: every param whole, the
// typed controller fields dropped and the v2 fields empty.
func TestDecodeLegacyV1(t *testing.T) {
	want := legacySnapshot()
	want.Strategy, want.StrategyState = "", nil
	got, err := Decode(bytes.NewReader(encodeLegacyBytes(1, want)))
	if err != nil {
		t.Fatalf("decoding a v1 snapshot: %v", err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("v1 decode mismatch:\n got %+v\nwant %+v", got, want)
	}
	// A v1 snapshot re-encodes at the current version and stays stable.
	re := EncodeBytes(got)
	got2, err := Decode(bytes.NewReader(re))
	if err != nil {
		t.Fatalf("re-decoding an upgraded v1 snapshot: %v", err)
	}
	if !reflect.DeepEqual(got, got2) {
		t.Fatal("upgraded v1 snapshot did not round-trip")
	}
}

// TestDecodeLegacyV2 pins that version-2 files decode into whole-param
// state, so resume has one restore path for every version.
func TestDecodeLegacyV2(t *testing.T) {
	want := legacySnapshot()
	got, err := Decode(bytes.NewReader(encodeLegacyBytes(2, want)))
	if err != nil {
		t.Fatalf("decoding a v2 snapshot: %v", err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("v2 decode mismatch:\n got %+v\nwant %+v", got, want)
	}
}

func TestCodecRoundTrip(t *testing.T) {
	s := sampleSnapshot()
	data := EncodeBytes(s)
	got, err := Decode(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s, got) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, s)
	}
	// Encoding is deterministic: same snapshot, same bytes.
	if !bytes.Equal(data, EncodeBytes(got)) {
		t.Fatal("re-encoding a decoded snapshot produced different bytes")
	}
}

// TestEncodeBytesIsOnePresizedPass pins that EncodeBytes sizes its
// buffer exactly before encoding: one allocation, no spare capacity.
func TestEncodeBytesIsOnePresizedPass(t *testing.T) {
	s := sampleSnapshot()
	if data := EncodeBytes(s); len(data) != cap(data) {
		t.Fatalf("frame is %d bytes in a %d-byte buffer", len(data), cap(data))
	}
	if allocs := testing.AllocsPerRun(20, func() { EncodeBytes(s) }); allocs != 1 {
		t.Fatalf("EncodeBytes made %v allocations, want 1", allocs)
	}
}

func TestDecodeRejectsUnknownParamKind(t *testing.T) {
	s := sampleSnapshot()
	s.Adam.Params[1].Kind = nn.SteppedRows + 1
	if _, err := Decode(bytes.NewReader(EncodeBytes(s))); err == nil {
		t.Fatal("unknown param state kind decoded without error")
	}
}

func TestDecodeRejectsBadMagic(t *testing.T) {
	data := EncodeBytes(sampleSnapshot())
	data[0] ^= 0xff
	if _, err := Decode(bytes.NewReader(data)); !errors.Is(err, wire.ErrBadMagic) {
		t.Fatalf("err = %v, want ErrBadMagic", err)
	}
}

func TestDecodeRejectsFutureVersion(t *testing.T) {
	data := EncodeBytes(sampleSnapshot())
	binary.LittleEndian.PutUint32(data[8:12], Version+1)
	var fv *wire.VersionError
	_, err := Decode(bytes.NewReader(data))
	if !errors.As(err, &fv) {
		t.Fatalf("err = %v, want *wire.VersionError", err)
	}
	if fv.Version != Version+1 {
		t.Fatalf("reported version %d, want %d", fv.Version, Version+1)
	}
}

func TestDecodeRejectsEveryTruncation(t *testing.T) {
	data := EncodeBytes(sampleSnapshot())
	for n := 0; n < len(data); n++ {
		if _, err := Decode(bytes.NewReader(data[:n])); err == nil {
			t.Fatalf("truncation to %d of %d bytes decoded without error", n, len(data))
		}
	}
}

func TestDecodeRejectsEveryBitFlip(t *testing.T) {
	data := EncodeBytes(sampleSnapshot())
	// Flipping any payload byte must trip the checksum; flipping header
	// bytes must trip magic/version/length/CRC validation. A flip in the
	// length field can make a valid-prefix read fail as truncated or
	// trailing — any error is acceptable, silence is not. Stride keeps
	// the test fast while still covering header and payload.
	for i := 0; i < len(data); i += 7 {
		mutated := append([]byte(nil), data...)
		mutated[i] ^= 0x10
		if _, err := Decode(bytes.NewReader(mutated)); err == nil {
			t.Fatalf("bit flip at byte %d decoded without error", i)
		}
	}
}

func TestDecodeRejectsTrailingGarbage(t *testing.T) {
	data := append(EncodeBytes(sampleSnapshot()), 0xAA)
	if _, err := Decode(bytes.NewReader(data)); err == nil {
		t.Fatal("trailing garbage decoded without error")
	}
}

func TestDecodeRejectsImplausibleLength(t *testing.T) {
	data := EncodeBytes(sampleSnapshot())
	binary.LittleEndian.PutUint64(data[12:20], maxPayload+1)
	if _, err := Decode(bytes.NewReader(data)); err == nil {
		t.Fatal("implausible payload length decoded without error")
	}
}

func TestDecodeRejectsOversizedInnerLengths(t *testing.T) {
	// A payload that declares a huge vector inside a small payload must
	// fail on the bounds check, not allocate.
	var e wire.Enc
	e.U64(1) // step
	e.U64(0) // batches
	e.U64(0) // created
	e.U64(0) // rng
	e.Str("fp")
	e.U64(0)          // adam t
	e.U32(1)          // one param...
	e.U8(1)           // ...whole...
	e.U32(0)          // ...no rows...
	e.U32(0xffffffff) // ...claiming 4 billion weights
	payload := e.Buf
	var buf bytes.Buffer
	var hdr [headerLen]byte
	copy(hdr[:8], magic)
	binary.LittleEndian.PutUint32(hdr[8:12], Version)
	binary.LittleEndian.PutUint64(hdr[12:20], uint64(len(payload)))
	binary.LittleEndian.PutUint32(hdr[20:24], crc32.ChecksumIEEE(payload))
	buf.Write(hdr[:])
	buf.Write(payload)
	if _, err := Decode(bytes.NewReader(buf.Bytes())); err == nil {
		t.Fatal("oversized inner length decoded without error")
	}
}

func TestDecodeEmptyAndShortInputs(t *testing.T) {
	for _, in := range [][]byte{nil, {}, []byte("H2O"), []byte(magic), append([]byte(magic), 1, 0, 0, 0)} {
		if _, err := Decode(bytes.NewReader(in)); err == nil {
			t.Fatalf("short input %q decoded without error", in)
		}
	}
}
