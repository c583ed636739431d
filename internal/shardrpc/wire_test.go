package shardrpc

import (
	"bytes"
	"errors"
	"io"
	"math"
	"reflect"
	"strings"
	"testing"

	"h2onas/internal/space"
	"h2onas/internal/supernet"
	"h2onas/internal/wire"
)

// frameBytes is the complete frame of one message.
func frameBytes(t testing.TB, typ byte, reqID uint64, payload []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := writeFrame(&buf, typ, reqID, append(newFrame(nil), payload...)); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// floats decodes a view into a new slice.
func floats(v wire.F64View) []float64 {
	out := make([]float64, v.Len())
	v.CopyTo(out)
	return out
}

// patchesOf turns decoded patches back into sendable ones, values packed.
func patchesOf(vs []patchView) []tensorPatch {
	ps := make([]tensorPatch, len(vs))
	for i, v := range vs {
		ps[i] = tensorPatch{Param: v.Param, Values: floats(v.Values)}
		if !v.Dense {
			ps[i].Rows = make([]int32, v.Rows.Len())
			for k := range ps[i].Rows {
				ps[i].Rows[k] = v.Rows.At(k)
			}
		}
	}
	return ps
}

// reqOf turns a decoded exec request back into a sendable one.
func reqOf(v *execView) *execReq {
	r := &execReq{
		Step: v.Step, Assignment: v.Assignment,
		WeightsMode: v.WeightsMode, FromVersion: v.FromVersion, ToVersion: v.ToVersion,
		NumExamples: v.NumExamples, NumDense: v.NumDense,
		Dense: floats(v.Dense), Labels: floats(v.Labels), Sparse: v.Sparse,
	}
	switch v.WeightsMode {
	case weightsFull:
		r.Full = make([][]float64, len(v.Full))
		for i, row := range v.Full {
			r.Full[i] = floats(row)
		}
	case weightsDelta:
		r.Delta = patchesOf(v.Delta)
	}
	return r
}

// resultOf turns a decoded exec result back into a sendable one.
func resultOf(v *resultView) *execResult {
	return &execResult{Step: v.Step, Version: v.Version, Loss: v.Loss, Grads: patchesOf(v.Grads)}
}

func TestFrameRoundTrip(t *testing.T) {
	payload := []byte{1, 2, 3, 4, 5}
	typ, id, got, err := readFrame(bytes.NewReader(frameBytes(t, frameExec, 42, payload)), nil)
	if err != nil {
		t.Fatal(err)
	}
	if typ != frameExec || id != 42 || !bytes.Equal(got, payload) {
		t.Fatalf("frame round trip: type %d id %d payload %v", typ, id, got)
	}
}

func TestFrameEmptyPayload(t *testing.T) {
	typ, id, got, err := readFrame(bytes.NewReader(frameBytes(t, frameHelloAck, 7, nil)), nil)
	if err != nil {
		t.Fatal(err)
	}
	if typ != frameHelloAck || id != 7 || len(got) != 0 {
		t.Fatalf("empty frame: type %d id %d payload %v", typ, id, got)
	}
}

func TestFrameRejectsCorruption(t *testing.T) {
	frame := func() []byte { return frameBytes(t, frameExec, 1, []byte("hello shard")) }

	t.Run("bad magic", func(t *testing.T) {
		b := frame()
		b[0] ^= 0xFF
		if _, _, _, err := readFrame(bytes.NewReader(b), nil); !errors.Is(err, wire.ErrBadMagic) {
			t.Fatalf("err = %v, want bad magic", err)
		}
	})
	t.Run("future version", func(t *testing.T) {
		b := frame()
		b[8] = 99
		_, _, _, err := readFrame(bytes.NewReader(b), nil)
		if err == nil || !strings.Contains(err.Error(), "protocol version") {
			t.Fatalf("err = %v, want version rejection", err)
		}
	})
	t.Run("flipped payload bit", func(t *testing.T) {
		b := frame()
		b[headerLen+2] ^= 0x01
		if _, _, _, err := readFrame(bytes.NewReader(b), nil); !errors.Is(err, wire.ErrChecksum) {
			t.Fatalf("err = %v, want checksum mismatch", err)
		}
	})
	t.Run("truncated payload", func(t *testing.T) {
		b := frame()
		if _, _, _, err := readFrame(bytes.NewReader(b[:len(b)-3]), nil); !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("err = %v, want unexpected EOF", err)
		}
	})
	t.Run("implausible length", func(t *testing.T) {
		b := frame()
		// Declared length far beyond maxPayload must be rejected before
		// any allocation.
		for i := 21; i < 29; i++ {
			b[i] = 0xFF
		}
		_, _, _, err := readFrame(bytes.NewReader(b), nil)
		if err == nil || !strings.Contains(err.Error(), "implausible") {
			t.Fatalf("err = %v, want size rejection", err)
		}
	})
}

func TestHelloRoundTrip(t *testing.T) {
	in := &hello{
		Shard:   3,
		Space:   space.SmallDLRMConfig(),
		Options: supernet.Options{VocabSharing: supernet.FineVocab},
	}
	out, err := decodeHello(encodeHello(nil, in))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("hello round trip:\n in  %+v\n out %+v", in, out)
	}
}

func TestExecRoundTrip(t *testing.T) {
	cases := []*execReq{
		{
			Step: 9, Assignment: space.Assignment{1, 0, 2},
			WeightsMode: weightsNone, ToVersion: 4,
			NumExamples: 2, NumDense: 3,
			Dense:  []float64{1, 2, 3, 4, 5, math.Inf(1)},
			Labels: []float64{0, 1},
			Sparse: [][][]int{{{1, 2}, {3}}, {{}, {4, 5, 6}}},
		},
		{
			Step: 0, Assignment: space.Assignment{0},
			WeightsMode: weightsFull, ToVersion: 1,
			Full:        [][]float64{{1.5, -2.5}, {math.SmallestNonzeroFloat64}},
			NumExamples: 1, NumDense: 1,
			Dense: []float64{0.25}, Labels: []float64{1},
			Sparse: [][][]int{{{7}}},
		},
		{
			Step: 17, Assignment: space.Assignment{2, 2},
			WeightsMode: weightsDelta, FromVersion: 6, ToVersion: 7,
			Delta: []tensorPatch{
				{Param: 0, Rows: []int32{5, 1, 9}, Values: []float64{1, 2, 3, 4, 5, 6}},
				{Param: 3, Values: []float64{-0.5}},
				{Param: 4, Rows: []int32{}, Values: []float64{}},
			},
			NumExamples: 1, NumDense: 2,
			Dense: []float64{1, 2}, Labels: []float64{0},
			Sparse: [][][]int{{{1}}},
		},
	}
	// One view decodes every case, the way a connection reuses its own.
	var v execView
	for i, in := range cases {
		if err := decodeExec(encodeExec(nil, in), &v); err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if out := reqOf(&v); !reflect.DeepEqual(in, out) {
			t.Fatalf("case %d round trip:\n in  %+v\n out %+v", i, in, out)
		}
	}
}

// TestEncodeExecSizedOnce holds execLen to the bytes encodeExec writes in
// every weight-sync mode, a delta that reads rows in place included, and
// requires a full sync encoded into an empty buffer to allocate once: a
// frame grown row by row reallocates at every doubling.
func TestEncodeExecSizedOnce(t *testing.T) {
	rowsInPlace := goldenExec(weightsDelta)
	rowsInPlace.Delta = append(rowsInPlace.Delta, tensorPatch{Param: 6, Rows: []int32{2, 0}, Values: make([]float64, 12), Cols: 4})
	full := goldenExec(weightsFull)
	full.Full = nil
	for i := range 64 {
		full.Full = append(full.Full, make([]float64, 100*i))
	}
	for _, r := range []*execReq{goldenExec(weightsNone), goldenExec(weightsFull), goldenExec(weightsDelta), rowsInPlace, full} {
		if got, want := len(encodeExec(nil, r)), execLen(r); got != want {
			t.Errorf("mode %d: encodeExec wrote %d bytes, execLen says %d", r.WeightsMode, got, want)
		}
	}
	if raceDetector {
		t.Skip("the race detector's own allocations swamp the count")
	}
	if allocs := testing.AllocsPerRun(10, func() { encodeExec(nil, full) }); allocs != 1 {
		t.Fatalf("encoding a %d-row full sync into an empty buffer made %v allocations, want 1", len(full.Full), allocs)
	}
}

func TestExecResultRoundTripPreservesBits(t *testing.T) {
	// NaN payloads can't survive reflect.DeepEqual, but their bits must
	// survive the wire: compare bit patterns explicitly.
	in := &execResult{
		Step: 3, Version: 11,
		Loss: math.Float64frombits(0x7FF8000000000001), // a specific NaN
		Grads: []tensorPatch{
			{Param: 2, Rows: []int32{8, 0}, Values: []float64{math.Copysign(0, -1), 1e-308, -1e308, math.NaN()}},
			{Param: 5, Values: []float64{math.Pi}},
		},
	}
	var v resultView
	if err := decodeExecResult(encodeExecResult(nil, in), &v); err != nil {
		t.Fatal(err)
	}
	out := resultOf(&v)
	if out.Step != in.Step || out.Version != in.Version {
		t.Fatalf("header fields: %+v", out)
	}
	if math.Float64bits(out.Loss) != math.Float64bits(in.Loss) {
		t.Fatalf("loss bits %x, want %x", math.Float64bits(out.Loss), math.Float64bits(in.Loss))
	}
	if len(out.Grads) != len(in.Grads) {
		t.Fatalf("grads %d, want %d", len(out.Grads), len(in.Grads))
	}
	for g := range in.Grads {
		if out.Grads[g].Param != in.Grads[g].Param || !reflect.DeepEqual(out.Grads[g].Rows, in.Grads[g].Rows) {
			t.Fatalf("grad %d structure: %+v", g, out.Grads[g])
		}
		for v := range in.Grads[g].Values {
			if math.Float64bits(out.Grads[g].Values[v]) != math.Float64bits(in.Grads[g].Values[v]) {
				t.Fatalf("grad %d value %d bits differ", g, v)
			}
		}
	}
}

func TestErrorRoundTrip(t *testing.T) {
	msg, err := decodeError(encodeError(nil, "shard step panicked: boom"))
	if err != nil {
		t.Fatal(err)
	}
	if msg != "shard step panicked: boom" {
		t.Fatalf("msg = %q", msg)
	}
}

// TestPayloadDecodersRejectGarbage fuzzes each decoder with truncations
// of a valid payload: every prefix must return an error, never panic or
// hang — the bounded-decoder discipline.
func TestPayloadDecodersRejectGarbage(t *testing.T) {
	valid := encodeExec(nil, &execReq{
		Step: 1, Assignment: space.Assignment{1, 2},
		WeightsMode: weightsDelta, FromVersion: 1, ToVersion: 2,
		Delta:       []tensorPatch{{Param: 0, Rows: []int32{1}, Values: []float64{1, 2}}},
		NumExamples: 1, NumDense: 2,
		Dense: []float64{1, 2}, Labels: []float64{1},
		Sparse: [][][]int{{{3, 4}}},
	})
	for n := 0; n < len(valid); n++ {
		if err := decodeExec(valid[:n], &execView{}); err == nil {
			t.Fatalf("decodeExec accepted a %d-byte truncation of a %d-byte payload", n, len(valid))
		}
	}
	if _, err := decodeHello(valid); err == nil {
		t.Fatal("decodeHello accepted an exec payload")
	}
}
