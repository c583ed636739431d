// Package shardrpc is the TCP transport behind core.ShardTransport: a
// coordinator drives a fleet of remote shard workers over length-prefixed
// binary frames on stdlib net connections, reproducing the multi-node
// operating mode of the paper's measurement and search fleets. The
// protocol is deliberately minimal — one synchronous request per worker
// per step — because the search step itself is the unit of coordination:
// the coordinator samples candidates and draws batches, broadcasts them
// (plus the latest weight delta) to every worker, and collects per-shard
// losses and gradients for the fixed-order spine reduce. Every float64
// crosses the wire as its exact bit pattern, so a multi-node run is
// bit-identical to the in-process transport on the same seed and
// surviving shard set.
package shardrpc

import (
	"errors"
	"fmt"
	"io"

	"h2onas/internal/space"
	"h2onas/internal/supernet"
	"h2onas/internal/wire"
)

// One message is one internal/wire frame — magic "H2ONASRP", protocol
// version, then this protocol's two extra header fields (frame type
// uint8, request id uint64, echoed by responses), payload length and
// CRC32: 33 header bytes. The checksum rejects torn or corrupted frames
// before anything is trusted, and the payloads are field sequences in the
// wire codec, whose decoder bounds every declared count against the bytes
// present — garbage input can never drive large allocations or panics.

const (
	// Version is the current protocol version. A peer speaking a newer
	// version is rejected at the handshake.
	Version = 1

	frameExtra = 1 + 8 // type, request id
	headerLen  = 8 + 4 + frameExtra + 8 + 4
)

// frameFormat caps a frame at 1 GiB — far above any real exec frame at
// laptop scale.
var frameFormat = wire.Format{Magic: "H2ONASRP", Version: Version, Extra: frameExtra, MaxPayload: 1 << 30}

// Frame types.
const (
	frameHello      = 1 // coordinator → worker: run identity + model config
	frameHelloAck   = 2 // worker → coordinator: structural confirmation
	frameExec       = 3 // coordinator → worker: one shard step
	frameExecResult = 4 // worker → coordinator: loss + gradients
	frameError      = 5 // worker → coordinator: request failed
)

// Weight-synchronization modes carried by an exec frame.
const (
	weightsNone  = 0 // worker is current; no weight payload
	weightsFull  = 1 // complete parameter state
	weightsDelta = 2 // only the params/rows the last step touched
)

// writeFrame sends one frame. The payload is framed with type, request
// id, length and checksum; the caller owns deadlines on w.
func writeFrame(w io.Writer, typ byte, reqID uint64, payload []byte) error {
	extra := wire.Enc{Buf: make([]byte, 0, frameExtra)}
	extra.U8(typ)
	extra.U64(reqID)
	return wire.WriteFrame(w, frameFormat, extra.Buf, payload)
}

// readFrame reads and validates one frame. The caller owns deadlines.
func readFrame(r io.Reader) (typ byte, reqID uint64, payload []byte, err error) {
	_, extra, payload, err := wire.ReadFrame(r, frameFormat)
	if err != nil {
		var ve *wire.VersionError
		if errors.As(err, &ve) {
			err = fmt.Errorf("shardrpc: protocol version %d, this build speaks %d", ve.Version, Version)
		}
		return 0, 0, nil, err
	}
	d := wire.NewDec(extra)
	return d.U8(), d.U64(), payload, nil
}

// hello is the coordinator's handshake: everything a worker needs to
// build a structurally identical replica of the super-network.
type hello struct {
	Shard   uint32
	Space   space.DLRMConfig
	Options supernet.Options
}

// helloAck confirms the worker built its replica; the parameter count is
// the structural checksum the coordinator verifies against its master.
type helloAck struct {
	NumParams uint32
}

// tensorPatch is one parameter's share of a weight delta or gradient
// payload. Rows nil means the values cover the whole tensor densely;
// otherwise Values holds len(Rows) rows of the parameter's column width,
// in Rows order — which for gradients is the first-write order the
// deterministic reduce depends on.
type tensorPatch struct {
	Param  int
	Rows   []int32
	Values []float64
}

// execReq is one shard step: the candidate, the batch, and whatever
// weight synchronization this worker needs to be exact before computing.
type execReq struct {
	Step       uint64
	Assignment space.Assignment

	WeightsMode byte
	FromVersion uint64 // delta only: version the delta applies on top of
	ToVersion   uint64 // version the worker holds after applying
	Full        [][]float64
	Delta       []tensorPatch

	NumExamples int
	NumDense    int
	Dense       []float64 // NumExamples×NumDense, row-major
	Labels      []float64 // NumExamples
	Sparse      [][][]int // [table][example][bag ids]
}

// execResult is the worker's answer: the exact loss bits and the exact
// gradient bits of its replica, in param order.
type execResult struct {
	Step    uint64
	Version uint64 // weight version the worker now holds
	Loss    float64
	Grads   []tensorPatch
}

func encodeHello(h *hello) []byte {
	var e wire.Enc
	e.U32(h.Shard)
	c := h.Space
	e.Str(c.Name)
	e.U32(uint32(c.NumTables))
	e.U32(uint32(c.BaseEmbWidth))
	e.U32(uint32(c.EmbWidthStep))
	e.U32(uint32(c.BaseVocab))
	e.U32(uint32(c.BagSize))
	e.U32(uint32(c.NumDense))
	e.Ints(c.BottomWidths)
	e.Ints(c.TopWidths)
	e.U32(uint32(c.MLPWidthStep))
	e.U32(uint32(c.Batch))
	e.U32(uint32(c.Chips))
	e.U32(uint32(c.DType))
	e.U32(uint32(h.Options.VocabSharing))
	return e.Buf
}

func decodeHello(payload []byte) (*hello, error) {
	d := wire.NewDec(payload)
	h := &hello{}
	h.Shard = d.U32()
	h.Space.Name = d.Str()
	h.Space.NumTables = int(d.U32())
	h.Space.BaseEmbWidth = int(d.U32())
	h.Space.EmbWidthStep = int(d.U32())
	h.Space.BaseVocab = int(d.U32())
	h.Space.BagSize = int(d.U32())
	h.Space.NumDense = int(d.U32())
	h.Space.BottomWidths = d.Ints()
	h.Space.TopWidths = d.Ints()
	h.Space.MLPWidthStep = int(d.U32())
	h.Space.Batch = int(d.U32())
	h.Space.Chips = int(d.U32())
	h.Space.DType = int(d.U32())
	h.Options.VocabSharing = supernet.VocabSharing(d.U32())
	return h, finish(d, "hello")
}

func encodeHelloAck(a *helloAck) []byte {
	var e wire.Enc
	e.U32(a.NumParams)
	return e.Buf
}

func decodeHelloAck(payload []byte) (*helloAck, error) {
	d := wire.NewDec(payload)
	a := &helloAck{NumParams: d.U32()}
	return a, finish(d, "hello ack")
}

func encodeExec(r *execReq) []byte {
	var e wire.Enc
	e.U64(r.Step)
	e.Ints(r.Assignment)
	e.U8(r.WeightsMode)
	e.U64(r.FromVersion)
	e.U64(r.ToVersion)
	switch r.WeightsMode {
	case weightsFull:
		e.Mat(r.Full)
	case weightsDelta:
		encodePatches(&e, r.Delta)
	}
	e.U32(uint32(r.NumExamples))
	e.U32(uint32(r.NumDense))
	e.F64s(r.Dense)
	e.F64s(r.Labels)
	e.U32(uint32(len(r.Sparse)))
	for _, table := range r.Sparse {
		e.U32(uint32(len(table)))
		for _, bag := range table {
			e.Ints(bag)
		}
	}
	return e.Buf
}

func decodeExec(payload []byte) (*execReq, error) {
	d := wire.NewDec(payload)
	r := &execReq{}
	r.Step = d.U64()
	r.Assignment = d.Ints()
	r.WeightsMode = d.U8()
	r.FromVersion = d.U64()
	r.ToVersion = d.U64()
	switch r.WeightsMode {
	case weightsNone:
	case weightsFull:
		r.Full = d.Mat()
	case weightsDelta:
		r.Delta = decodePatches(d)
	default:
		d.Failf("unknown weights mode %d", r.WeightsMode)
	}
	r.NumExamples = int(d.U32())
	r.NumDense = int(d.U32())
	r.Dense = d.F64s()
	r.Labels = d.F64s()
	nt := int(d.U32())
	if d.Count(nt, 4, "sparse tables") {
		r.Sparse = make([][][]int, nt)
		for t := range r.Sparse {
			ne := int(d.U32())
			if !d.Count(ne, 4, "sparse examples") {
				break
			}
			r.Sparse[t] = make([][]int, ne)
			for i := range r.Sparse[t] {
				r.Sparse[t][i] = d.Ints()
			}
		}
	}
	return r, finish(d, "exec")
}

func encodeExecResult(r *execResult) []byte {
	var e wire.Enc
	e.U64(r.Step)
	e.U64(r.Version)
	e.F64(r.Loss)
	encodePatches(&e, r.Grads)
	return e.Buf
}

func decodeExecResult(payload []byte) (*execResult, error) {
	d := wire.NewDec(payload)
	r := &execResult{}
	r.Step = d.U64()
	r.Version = d.U64()
	r.Loss = d.F64()
	r.Grads = decodePatches(d)
	return r, finish(d, "exec result")
}

func encodeError(msg string) []byte {
	var e wire.Enc
	e.Str(msg)
	return e.Buf
}

func decodeError(payload []byte) (string, error) {
	d := wire.NewDec(payload)
	msg := d.Str()
	return msg, finish(d, "error")
}

// encodePatches writes a patch list: per patch the param index, a kind
// byte (0 dense, 1 rows) with the row list for kind 1, and the values.
func encodePatches(e *wire.Enc, ps []tensorPatch) {
	e.U32(uint32(len(ps)))
	for _, p := range ps {
		e.U32(uint32(p.Param))
		if p.Rows == nil {
			e.U8(0)
		} else {
			e.U8(1)
			e.I32s(p.Rows)
		}
		e.F64s(p.Values)
	}
}

func decodePatches(d *wire.Dec) []tensorPatch {
	n := int(d.U32())
	if !d.Count(n, 6, "patch") {
		return nil
	}
	ps := make([]tensorPatch, n)
	for i := range ps {
		ps[i].Param = int(d.U32())
		switch d.U8() {
		case 0:
		case 1:
			ps[i].Rows = d.I32s()
			if ps[i].Rows == nil && d.Err() == nil {
				// A rows-kind patch with zero rows keeps a non-nil marker
				// so the decoder round-trips the dense/rows distinction.
				ps[i].Rows = []int32{}
			}
		default:
			d.Failf("invalid patch kind")
		}
		ps[i].Values = d.F64s()
		if d.Err() != nil {
			return nil
		}
	}
	return ps
}

// finish validates that the payload was consumed exactly.
func finish(d *wire.Dec, what string) error {
	if err := d.Finish(); err != nil {
		return fmt.Errorf("shardrpc: corrupt %s payload: %w", what, err)
	}
	return nil
}
