package checkpoint

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"reflect"
	"testing"

	"h2onas/internal/wire"
)

// sampleSnapshot builds a representative snapshot with every field
// populated (including non-finite floats, which must round-trip bit-for-
// bit).
func sampleSnapshot() *Snapshot {
	return &Snapshot{
		Step:            17,
		BatchesConsumed: 51,
		Fingerprint:     "core.Search/v1 space=test/3/abc shards=3 batch=16",
		RNG:             0xdeadbeefcafef00d,
		Strategy:        "reinforce",
		StrategyState:   []byte{0x02, 0x00, 0x00, 0x00, 0xff, 0x7f},
		PolicyLogits:    [][]float64{{0.25, -1.5, 3}, {0, 0.125}},
		Baseline:        0.375,
		BaselineSet:     true,
		CtrlSteps:       9,
		Weights:         [][]float64{{1, 2, 3, 4}, {-0.5}, {math.Inf(1), math.SmallestNonzeroFloat64}},
		AdamT:           17,
		AdamM:           [][]float64{{0.1, 0.2, 0.3, 0.4}, {0}, {1e-300, -1e300}},
		AdamV:           [][]float64{{1, 1, 1, 1}, {2}, {3, 4}},
		History: []StepRecord{
			{Step: 0, MeanReward: -0.25, MeanQ: 0.1, Entropy: 12.5, Confidence: 0.2},
			{Step: 1, MeanReward: 0.5, MeanQ: 0.2, Entropy: 11, Confidence: 0.25},
		},
		CreatedAtUnix: 1754400000,
	}
}

// encodeV1Bytes writes s in the legacy version-1 wire format: the v2
// payload minus the trailing Strategy/StrategyState fields, under a
// version-1 header. Used to pin backward compatibility.
func encodeV1Bytes(s *Snapshot) []byte {
	payload := encodePayload(s)
	trim := 4 + len(s.Strategy) + 4 + len(s.StrategyState)
	payload = payload[:len(payload)-trim]
	var hdr [headerLen]byte
	copy(hdr[:8], magic)
	binary.LittleEndian.PutUint32(hdr[8:12], 1)
	binary.LittleEndian.PutUint64(hdr[12:20], uint64(len(payload)))
	binary.LittleEndian.PutUint32(hdr[20:24], crc32.ChecksumIEEE(payload))
	return append(hdr[:], payload...)
}

// TestDecodeLegacyV1 pins that version-1 snapshot files — written before
// the strategy fields existed — still decode, with the legacy typed
// controller fields intact and the v2 fields empty.
func TestDecodeLegacyV1(t *testing.T) {
	want := sampleSnapshot()
	want.Strategy, want.StrategyState = "", nil
	got, err := Decode(bytes.NewReader(encodeV1Bytes(want)))
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
	e.F64(0)
	e.Bool(false)
	e.U64(0)          // ctrl steps
	e.U64(0)          // adam t
	e.U32(1)          // one policy row...
	e.U32(0xffffffff) // ...claiming 4 billion logits
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
