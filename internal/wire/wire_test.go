package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"math"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"h2onas/internal/wire/wiretest"
)

// The three envelopes in use (internal/checkpoint, internal/jobs,
// internal/shardrpc), mirrored so the envelope tests and fuzzers cover
// exactly the header layouts that exist on disk and on the wire.
var formats = []Format{
	{Magic: "H2ONASCK", Version: 3, MaxPayload: 1 << 30},
	{Magic: "H2OJOBRC", Version: 1, MaxPayload: 16 << 20},
	{Magic: "H2ONASRP", Version: 1, Extra: 9, MaxPayload: 1 << 30},
}

// sample is one value of every field kind, in codec order.
type sample struct {
	U8   byte
	U32  uint32
	U64  uint64
	F64  float64
	Bool bool
	Str  string
	Raw  []byte
	Vec  []float64
	Mat  [][]float64
	Ints []int
	Rows []int32
}

func (s *sample) encode() []byte {
	var e Enc
	e.U8(s.U8)
	e.U32(s.U32)
	e.U64(s.U64)
	e.F64(s.F64)
	e.Bool(s.Bool)
	e.Str(s.Str)
	e.Bytes(s.Raw)
	e.F64s(s.Vec)
	e.Mat(s.Mat)
	e.Ints(s.Ints)
	e.I32s(s.Rows)
	return e.Buf
}

// int32s copies a row view out.
func int32s(v I32View) []int32 {
	out := make([]int32, v.Len())
	for i := range out {
		out[i] = v.At(i)
	}
	return out
}

func decodeSample(payload []byte) (*sample, error) {
	d := NewDec(payload)
	s := &sample{
		U8: d.U8(), U32: d.U32(), U64: d.U64(), F64: d.F64(), Bool: d.Bool(),
		Str: d.Str(), Raw: d.Bytes(), Vec: d.F64s(), Mat: d.Mat(), Ints: d.Ints(), Rows: int32s(d.I32View()),
	}
	return s, d.Finish()
}

func fullSample() *sample {
	return &sample{
		U8: 7, U32: 0xdeadbeef, U64: 0x0102030405060708, F64: math.Inf(-1), Bool: true,
		Str: "H₂O", Raw: []byte{0, 0xff, 1},
		Vec:  []float64{1.5, math.SmallestNonzeroFloat64, math.Copysign(0, -1)},
		Mat:  [][]float64{{1, 2}, {}, {3}},
		Ints: []int{0, 1, math.MaxUint32}, Rows: []int32{5, -1, math.MaxInt32},
	}
}

func TestCodecRoundTrip(t *testing.T) {
	want := fullSample()
	got, err := decodeSample(want.encode())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip:\n got %+v\nwant %+v", got, want)
	}
	// NaN payload bits survive (DeepEqual cannot see them).
	nan := math.Float64frombits(0x7FF8000000000001)
	var e Enc
	e.F64(nan)
	if got := NewDec(e.Buf).F64(); math.Float64bits(got) != math.Float64bits(nan) {
		t.Fatalf("NaN bits %x, want %x", math.Float64bits(got), math.Float64bits(nan))
	}
}

func TestDecRejectsTruncationTrailingAndBadBool(t *testing.T) {
	valid := fullSample().encode()
	for n := 0; n < len(valid); n++ {
		if _, err := decodeSample(valid[:n]); err == nil {
			t.Fatalf("%d-byte truncation of a %d-byte payload decoded without error", n, len(valid))
		}
	}
	if _, err := decodeSample(append(valid, 0)); err == nil || !strings.Contains(err.Error(), "unread") {
		t.Fatalf("trailing byte: err = %v, want unread bytes", err)
	}
	d := NewDec([]byte{2})
	if d.Bool(); d.Finish() == nil {
		t.Fatal("boolean byte 2 decoded without error")
	}
	// The first error sticks: later reads return zero values and do not
	// replace it.
	d = NewDec([]byte{1, 2, 3})
	d.U64()
	first := d.Err()
	if d.U8() != 0 || d.Err() != first || first == nil {
		t.Fatalf("sticky error: first %v, now %v", first, d.Err())
	}
}

// allocated reports the heap bytes fn allocates.
func allocated(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestDecBoundsCountsBeforeAllocating pins the rule that makes the
// decoder safe on hostile input: a declared count alone buys no memory.
func TestDecBoundsCountsBeforeAllocating(t *testing.T) {
	huge := binary.LittleEndian.AppendUint32(nil, math.MaxUint32)
	huge = append(huge, make([]byte, 16)...)
	reads := map[string]func(*Dec){
		"Str":        func(d *Dec) { d.Str() },
		"Bytes":      func(d *Dec) { d.Bytes() },
		"F64s":       func(d *Dec) { d.F64s() },
		"Mat":        func(d *Dec) { d.Mat() },
		"Ints":       func(d *Dec) { d.Ints() },
		"I32View":    func(d *Dec) { d.I32View() },
		"F64View":    func(d *Dec) { d.F64View() },
		"AppendInts": func(d *Dec) { d.AppendInts(nil) },
	}
	for name, read := range reads {
		var err error
		got := allocated(func() {
			d := NewDec(huge)
			read(d)
			err = d.Finish()
		})
		if err == nil {
			t.Fatalf("%s accepted a 4-billion count in a 20-byte payload", name)
		}
		if got > 1<<16 {
			t.Fatalf("%s allocated %d bytes for a 20-byte payload", name, got)
		}
	}
}

func frameBytes(t testing.TB, f Format, extra, payload []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteFrame(&buf, f, extra, payload); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestFrameRoundTripAndCorruption(t *testing.T) {
	for _, f := range formats {
		extra := bytes.Repeat([]byte{0xab}, f.Extra)
		payload := []byte("hello frame")
		frame := frameBytes(t, f, extra, payload)
		if len(frame) != f.HeaderLen()+len(payload) {
			t.Fatalf("%s: frame is %d bytes, header %d + payload %d", f.Magic, len(frame), f.HeaderLen(), len(payload))
		}
		version, gotExtra, got, err := ReadFrame(bytes.NewReader(frame), f, nil)
		if err != nil || version != f.Version || !bytes.Equal(gotExtra, extra) || !bytes.Equal(got, payload) {
			t.Fatalf("%s: round trip = v%d %x %q, %v", f.Magic, version, gotExtra, got, err)
		}
		if _, _, err := ReadFileFrame(bytes.NewReader(frame), f); err != nil {
			t.Fatalf("%s: sole frame: %v", f.Magic, err)
		}

		mutate := func(i int, b byte) []byte {
			m := append([]byte(nil), frame...)
			m[i] = b
			return m
		}
		lengthAt := 12 + f.Extra
		cases := []struct {
			name string
			data []byte
			is   error
			text string
		}{
			{"bad magic", mutate(0, 'X'), ErrBadMagic, ""},
			{"flipped payload bit", mutate(f.HeaderLen()+2, frame[f.HeaderLen()+2]^1), ErrChecksum, ""},
			{"flipped crc bit", mutate(lengthAt+8, frame[lengthAt+8]^1), ErrChecksum, ""},
			{"truncated payload", frame[:len(frame)-3], ErrTruncated, ""},
			{"truncated header", frame[:f.HeaderLen()-1], ErrTruncated, ""},
			{"empty", nil, ErrTruncated, ""},
			{"version 0", mutate(8, 0), nil, "version 0"},
			{"implausible length", append(append([]byte(nil), frame[:lengthAt]...), bytes.Repeat([]byte{0xff}, 12)...), nil, "implausible"},
		}
		for _, c := range cases {
			_, _, _, err := ReadFrame(bytes.NewReader(c.data), f, nil)
			if err == nil || (c.is != nil && !errors.Is(err, c.is)) || !strings.Contains(err.Error(), c.text) {
				t.Fatalf("%s: %s: err = %v", f.Magic, c.name, err)
			}
		}
		// Truncation keeps the cause visible: a clean end of stream before
		// the first header byte is io.EOF (a closed connection), a cut
		// mid-frame is io.ErrUnexpectedEOF.
		if _, _, _, err := ReadFrame(bytes.NewReader(nil), f, nil); !errors.Is(err, io.EOF) {
			t.Fatalf("%s: empty stream: %v, want io.EOF", f.Magic, err)
		}
		if _, _, _, err := ReadFrame(bytes.NewReader(frame[:len(frame)-1]), f, nil); !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("%s: cut stream: %v, want io.ErrUnexpectedEOF", f.Magic, err)
		}

		var ve *VersionError
		_, _, _, err = ReadFrame(bytes.NewReader(mutate(8, byte(f.Version+1))), f, nil)
		if !errors.As(err, &ve) || ve.Version != f.Version+1 || ve.Supported != f.Version {
			t.Fatalf("%s: future version: err = %v", f.Magic, err)
		}

		// A stream may carry more frames; a file may not.
		two := append(append([]byte(nil), frame...), frame...)
		if _, _, _, err := ReadFrame(bytes.NewReader(two), f, nil); err != nil {
			t.Fatalf("%s: first of two frames: %v", f.Magic, err)
		}
		if _, _, err := ReadFileFrame(bytes.NewReader(two), f); err == nil || !strings.Contains(err.Error(), "trailing") {
			t.Fatalf("%s: trailing bytes: err = %v", f.Magic, err)
		}
	}
}

// header builds a frame header declaring length, with no payload behind it.
func header(f Format, length uint64, crc uint32) []byte {
	hdr := append([]byte(f.Magic), 0, 0, 0, 0)
	binary.LittleEndian.PutUint32(hdr[8:], f.Version)
	hdr = append(hdr, make([]byte, f.Extra)...)
	hdr = binary.LittleEndian.AppendUint64(hdr, length)
	return binary.LittleEndian.AppendUint32(hdr, crc)
}

// TestDeclaredLengthAloneBuysBoundedMemory: a bare header may declare up
// to MaxPayload (1 GiB for snapshots and shardrpc frames — and a
// shardworker listens unauthenticated), but until bytes back the claim
// ReadFrame allocates at most maxUpfront.
func TestDeclaredLengthAloneBuysBoundedMemory(t *testing.T) {
	for _, f := range formats {
		hdr := header(f, f.MaxPayload, 0)
		var err error
		got := allocated(func() { _, _, _, err = ReadFrame(bytes.NewReader(hdr), f, nil) })
		if !errors.Is(err, ErrTruncated) {
			t.Fatalf("%s: err = %v, want ErrTruncated", f.Magic, err)
		}
		if got >= 65<<20 {
			t.Fatalf("%s: a %d-byte header declaring %d bytes cost %d bytes of allocation", f.Magic, len(hdr), f.MaxPayload, got)
		}
	}
}

// zeros is an endless stream of zero bytes.
type zeros struct{}

func (zeros) Read(p []byte) (int, error) {
	clear(p)
	return len(p), nil
}

// TestPayloadBeyondUpfrontCapGrowsAsBytesArrive covers the path no real
// frame takes at this repository's scale: a payload larger than
// maxUpfront that is actually present decodes correctly.
func TestPayloadBeyondUpfrontCapGrowsAsBytesArrive(t *testing.T) {
	if testing.Short() {
		t.Skip("allocates ~150 MB")
	}
	f := formats[0]
	const length = maxUpfront + maxUpfront/2 + 5
	crc := crc32.NewIEEE()
	if _, err := io.CopyN(crc, zeros{}, length); err != nil {
		t.Fatal(err)
	}
	r := io.MultiReader(bytes.NewReader(header(f, length, crc.Sum32())), io.LimitReader(zeros{}, length))
	_, payload, err := ReadFileFrame(r, f)
	if err != nil {
		t.Fatal(err)
	}
	if len(payload) != length {
		t.Fatalf("payload %d bytes, want %d", len(payload), length)
	}
}

func TestWriteFrameRejectsWrongExtraSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("WriteFrame accepted 3 extra header bytes for a 9-byte format")
		}
	}()
	WriteFrame(io.Discard, formats[2], []byte{1, 2, 3}, nil)
}

// goldenFrames loads the byte goldens the format's owner commits (full
// frames generated before this package existed), as fuzz seeds.
func goldenFrames(t testing.TB) map[int][][]byte {
	t.Helper()
	globs := []string{
		filepath.Join("..", "core", "testdata", "golden", "snapshot_*.hex"),
		filepath.Join("..", "jobs", "testdata", "*.hex"),
		filepath.Join("..", "shardrpc", "testdata", "*.hex"),
	}
	out := map[int][][]byte{}
	for i, glob := range globs {
		paths, err := filepath.Glob(glob)
		if err != nil || len(paths) == 0 {
			t.Fatalf("no byte goldens at %s (%v)", glob, err)
		}
		for _, p := range paths {
			out[i] = append(out[i], wiretest.Hex(t, p))
		}
	}
	return out
}

// TestGoldenFramesRead pins that every committed frame — the current
// version's, and the legacy versions' written by the pre-wire envelope
// encoders — reads under its mirrored format and re-frames under its own
// version to the same bytes.
func TestGoldenFramesRead(t *testing.T) {
	for i, frames := range goldenFrames(t) {
		f := formats[i]
		for _, frame := range frames {
			version, extra, payload, err := ReadFrame(bytes.NewReader(frame), f, nil)
			if err != nil {
				t.Fatalf("%s golden: %v", f.Magic, err)
			}
			fv := f
			fv.Version = version
			if !bytes.Equal(frameBytes(t, fv, extra, payload), frame) {
				t.Fatalf("%s golden does not re-frame to itself", f.Magic)
			}
		}
	}
}

// FuzzReadFrame: arbitrary bytes under each envelope either fail or yield
// a frame that re-frames to exactly the bytes consumed — never a panic,
// and never more memory than maxUpfront plus a multiple of the input. A
// read through a reused buffer pre-filled with garbage must agree with a
// fresh read byte for byte, and an accepted frame lands in that buffer.
func FuzzReadFrame(f *testing.F) {
	for i, frames := range goldenFrames(f) {
		for _, frame := range frames {
			f.Add(frame, uint8(i))
			f.Add(frame[:len(frame)/2], uint8(i))
		}
		f.Add(header(formats[i], formats[i].MaxPayload, 0), uint8(i))
	}
	f.Add([]byte{}, uint8(0))
	f.Fuzz(func(t *testing.T, data []byte, which uint8) {
		format := formats[int(which)%len(formats)]
		var (
			version        uint32
			extra, payload []byte
			err            error
		)
		got := allocated(func() { version, extra, payload, err = ReadFrame(bytes.NewReader(data), format, nil) })
		limit := uint64(maxUpfront + 4*len(data) + 1<<20)
		if got > limit {
			t.Fatalf("%d input bytes cost %d bytes of allocation", len(data), got)
		}

		// Every accepted frame fits in len(data) bytes, so this buffer
		// covers it; the garbage must never leak into a result.
		reused := make([]byte, len(data))
		for i := range reused {
			reused[i] = byte(i*131 + 7)
		}
		var (
			rVersion         uint32
			rExtra, rPayload []byte
			rErr             error
		)
		got = allocated(func() { rVersion, rExtra, rPayload, rErr = ReadFrame(bytes.NewReader(data), format, reused) })
		if got > limit {
			t.Fatalf("%d input bytes cost %d bytes of allocation through a reused buffer", len(data), got)
		}
		if (err == nil) != (rErr == nil) || rVersion != version || !bytes.Equal(rExtra, extra) || !bytes.Equal(rPayload, payload) {
			t.Fatalf("reused buffer read v%d %x %x (%v), fresh read v%d %x %x (%v)", rVersion, rExtra, rPayload, rErr, version, extra, payload, err)
		}
		if err != nil {
			return
		}
		if len(rPayload) > 0 && &rPayload[0] != &reused[0] {
			t.Fatal("a frame the buffer covers was read into a new buffer")
		}
		format.Version = version
		re := frameBytes(t, format, extra, payload)
		if len(re) > len(data) || !bytes.Equal(re, data[:len(re)]) {
			t.Fatalf("accepted %d bytes that re-frame differently", len(data))
		}
	})
}

// TestReusedBufferReadsFramesOfEverySize pushes a stream of frames that
// shrink and grow through one buffer: each must read back exactly, and
// the buffer is replaced only when a frame outgrows it.
func TestReusedBufferReadsFramesOfEverySize(t *testing.T) {
	f := formats[2]
	sizes := []int{300, 5, 0, 300, 301, 4096, 17}
	var stream bytes.Buffer
	for i, n := range sizes {
		payload := bytes.Repeat([]byte{byte(i + 1)}, n)
		extra := bytes.Repeat([]byte{byte(0xf0 + i)}, f.Extra)
		stream.Write(frameBytes(t, f, extra, payload))
	}
	var buf []byte
	for i, n := range sizes {
		before := cap(buf)
		_, extra, payload, err := ReadFrame(&stream, f, buf)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !bytes.Equal(payload, bytes.Repeat([]byte{byte(i + 1)}, n)) || !bytes.Equal(extra, bytes.Repeat([]byte{byte(0xf0 + i)}, f.Extra)) {
			t.Fatalf("frame %d read back as extra %x payload %x", i, extra, payload)
		}
		if grew := cap(payload) != before; grew != (before < n+f.HeaderLen()) {
			t.Fatalf("frame %d (%d bytes): buffer capacity %d → %d", i, n, before, cap(payload))
		}
		buf = payload
	}
}

// FuzzDec: arbitrary bytes decoded as one field of every kind either
// fail or re-encode to exactly the input — never a panic, never more
// than a constant multiple of the input allocated.
func FuzzDec(f *testing.F) {
	valid := fullSample().encode()
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add((&sample{}).encode())
	f.Add([]byte{})
	for _, frames := range goldenFrames(f) {
		for _, frame := range frames {
			f.Add(frame)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var (
			s   *sample
			err error
		)
		got := allocated(func() { s, err = decodeSample(data) })
		if limit := uint64(16*len(data) + 1<<20); got > limit {
			t.Fatalf("%d input bytes cost %d bytes of allocation", len(data), got)
		}
		if err != nil {
			return
		}
		if re := s.encode(); !bytes.Equal(re, data) {
			t.Fatalf("accepted %d bytes that re-encode differently", len(data))
		}
	})
}

// TestViewsDecodeLikeCopies: the in-place readers accept exactly what the
// copying readers accept and decode the same bits.
func TestViewsDecodeLikeCopies(t *testing.T) {
	s := fullSample()
	var e Enc
	e.F64s(s.Vec)
	e.I32s(s.Rows)
	e.Ints(s.Ints)
	e.F64Rows([]float64{1, 2, 3, 4, 5, 6}, 2, []int32{2, 0})
	d := NewDec(e.Buf)
	vec, rows, ints, gathered := d.F64View(), d.I32View(), d.AppendInts([]int{9}), d.F64s()
	if err := d.Finish(); err != nil {
		t.Fatal(err)
	}
	got := make([]float64, vec.Len()+1)
	if n := vec.CopyTo(got); n != len(s.Vec) {
		t.Fatalf("CopyTo copied %d of %d", n, len(s.Vec))
	}
	for i, x := range s.Vec {
		if math.Float64bits(got[i]) != math.Float64bits(x) {
			t.Fatalf("vector element %d: %v, want %v", i, got[i], x)
		}
	}
	window := make([]float64, 2)
	if vec.Slice(1, 3).CopyTo(window) != 2 || window[0] != s.Vec[1] || window[1] != s.Vec[2] {
		t.Fatal("Slice does not window the view")
	}
	if rows.Len() != len(s.Rows) {
		t.Fatalf("row view has %d elements, want %d", rows.Len(), len(s.Rows))
	}
	for i, r := range s.Rows {
		if rows.At(i) != r {
			t.Fatalf("row %d = %d, want %d", i, rows.At(i), r)
		}
	}
	if !reflect.DeepEqual(ints, append([]int{9}, s.Ints...)) {
		t.Fatalf("AppendInts = %v", ints)
	}
	if !reflect.DeepEqual(gathered, []float64{5, 6, 1, 2}) {
		t.Fatalf("F64Rows wrote %v, want rows 2 and 0", gathered)
	}
	// A count the payload cannot back fails before any view exists.
	d = NewDec(binary.LittleEndian.AppendUint32(nil, 3))
	if v := d.F64View(); v.Len() != 0 || d.Finish() == nil {
		t.Fatal("F64View accepted a count with no bytes behind it")
	}
}

// f64Sink keeps BenchmarkF64s's decoded vectors alive.
var f64Sink []float64

// BenchmarkF64s measures the bulk float codec on one 64 K-element vector
// (512 KiB, the order of a weight-delta or gradient frame): encode into a
// reused buffer, decode to a new slice, and decode in place through a
// view into reused storage.
func BenchmarkF64s(b *testing.B) {
	v := make([]float64, 1<<16)
	for i := range v {
		v[i] = float64(i) * 0.5
	}
	var e Enc
	e.F64s(v)
	payload := slices.Clone(e.Buf)
	b.Run("encode", func(b *testing.B) {
		b.SetBytes(int64(len(payload)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			e.Buf = e.Buf[:0]
			e.F64s(v)
		}
	})
	b.Run("decode", func(b *testing.B) {
		b.SetBytes(int64(len(payload)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			f64Sink = NewDec(payload).F64s()
		}
	})
	dst := make([]float64, len(v))
	b.Run("view", func(b *testing.B) {
		b.SetBytes(int64(len(payload)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			d := Dec{buf: payload}
			d.F64View().CopyTo(dst)
		}
	})
}
