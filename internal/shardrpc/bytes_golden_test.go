package shardrpc

import (
	"bytes"
	"math"
	"path/filepath"
	"testing"

	"h2onas/internal/space"
	"h2onas/internal/supernet"
	"h2onas/internal/wire/wiretest"
)

// goldenExec is one exec request in the given weight-sync mode.
func goldenExec(mode byte) *execReq {
	r := &execReq{
		Step: 9, Assignment: space.Assignment{1, 0, 2},
		WeightsMode: mode, ToVersion: 4,
		NumExamples: 2, NumDense: 3,
		Dense:  []float64{1, 2, 3, 4, 5, math.Inf(1)},
		Labels: []float64{0, 1},
		Sparse: [][][]int{{{1, 2}, {3}}, {{}, {4, 5, 6}}},
	}
	switch mode {
	case weightsFull:
		r.Full = [][]float64{{1.5, -2.5}, {math.SmallestNonzeroFloat64}, {}}
	case weightsDelta:
		r.FromVersion = 3
		r.Delta = []tensorPatch{
			{Param: 0, Rows: []int32{5, 1, 9}, Values: []float64{1, 2, 3, 4, 5, 6}},
			{Param: 3, Values: []float64{-0.5}},
			{Param: 4, Rows: []int32{}, Values: []float64{}},
		}
	}
	return r
}

// goldenFrames are the fixed messages whose complete frames (header and
// payload) are pinned under testdata/.
func goldenFrames() []struct {
	name    string
	typ     byte
	reqID   uint64
	payload []byte
} {
	return []struct {
		name    string
		typ     byte
		reqID   uint64
		payload []byte
	}{
		{"hello", frameHello, 1, encodeHello(&hello{
			Shard: 3, Space: space.SmallDLRMConfig(),
			Options: supernet.Options{VocabSharing: supernet.FineVocab},
		})},
		{"exec_none", frameExec, 0x0102030405060708, encodeExec(goldenExec(weightsNone))},
		{"exec_full", frameExec, 2, encodeExec(goldenExec(weightsFull))},
		{"exec_delta", frameExec, 3, encodeExec(goldenExec(weightsDelta))},
		{"exec_result", frameExecResult, 3, encodeExecResult(&execResult{
			Step: 9, Version: 4, Loss: math.Float64frombits(0x7FF8000000000001),
			Grads: []tensorPatch{
				{Param: 2, Rows: []int32{8, 0}, Values: []float64{math.Copysign(0, -1), 1e-308, -1e308, 0.5}},
				{Param: 5, Values: []float64{math.Pi}},
			},
		})},
	}
}

// TestFrameBytesMatchGolden pins the H2ONASRP wire format: every fixed
// message must frame to exactly the bytes the pre-internal/wire
// enc/writeFrame produced (a mixed-version fleet keeps working), and the
// golden bytes must read back to the same type, request id and payload.
func TestFrameBytesMatchGolden(t *testing.T) {
	for _, g := range goldenFrames() {
		want := wiretest.Hex(t, filepath.Join("testdata", g.name+".hex"))
		var buf bytes.Buffer
		if err := writeFrame(&buf, g.typ, g.reqID, g.payload); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), want) {
			t.Fatalf("%s frame bytes moved:\n got %x\nwant %x", g.name, buf.Bytes(), want)
		}
		typ, id, payload, err := readFrame(bytes.NewReader(want))
		if err != nil {
			t.Fatalf("reading the golden %s frame: %v", g.name, err)
		}
		if typ != g.typ || id != g.reqID || !bytes.Equal(payload, g.payload) {
			t.Fatalf("golden %s frame read back as type %d id %d payload %x", g.name, typ, id, payload)
		}
	}
}

// The payload fuzzers share one contract: a decoder returns an error or a
// message that re-encodes to exactly the input — never a panic, and
// never an allocation a declared count alone could demand.

func fuzzSeeds(f *testing.F, names ...string) {
	for _, name := range names {
		payload := wiretest.Hex(f, filepath.Join("testdata", name+".hex"))[headerLen:]
		f.Add(payload)
		f.Add(payload[:len(payload)/2])
	}
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xff}, 40))
}

func FuzzDecodeExec(f *testing.F) {
	fuzzSeeds(f, "exec_none", "exec_full", "exec_delta")
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := decodeExec(data)
		if err != nil {
			return
		}
		if re := encodeExec(r); !bytes.Equal(re, data) {
			t.Fatalf("decodeExec accepted %d bytes that re-encode differently", len(data))
		}
	})
}

func FuzzDecodeExecResult(f *testing.F) {
	fuzzSeeds(f, "exec_result")
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := decodeExecResult(data)
		if err != nil {
			return
		}
		if re := encodeExecResult(r); !bytes.Equal(re, data) {
			t.Fatalf("decodeExecResult accepted %d bytes that re-encode differently", len(data))
		}
	})
}

func FuzzDecodeHello(f *testing.F) {
	fuzzSeeds(f, "hello")
	f.Fuzz(func(t *testing.T, data []byte) {
		h, err := decodeHello(data)
		if err != nil {
			return
		}
		if re := encodeHello(h); !bytes.Equal(re, data) {
			t.Fatalf("decodeHello accepted %d bytes that re-encode differently", len(data))
		}
	})
}
