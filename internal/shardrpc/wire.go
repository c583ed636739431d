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
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"

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

// newFrame returns buf emptied behind a reserved frame header: encode
// the payload by appending to it, then send it with writeFrame.
func newFrame(buf []byte) []byte { return frameFormat.Reserve(buf) }

// writeFrame seals frame (from newFrame, payload appended) with its type
// and request id and sends it in one Write. The caller owns deadlines on w.
func writeFrame(w io.Writer, typ byte, reqID uint64, frame []byte) error {
	var extra [frameExtra]byte
	extra[0] = typ
	binary.LittleEndian.PutUint64(extra[1:], reqID)
	frameFormat.Seal(frame, extra[:])
	_, err := w.Write(frame)
	return err
}

// readFrame reads and validates one frame into buf (see wire.ReadFrame:
// passing each returned payload back as buf reuses one buffer per
// connection). The caller owns deadlines.
func readFrame(r io.Reader, buf []byte) (typ byte, reqID uint64, payload []byte, err error) {
	_, extra, payload, err := wire.ReadFrame(r, frameFormat, buf)
	if err != nil {
		var ve *wire.VersionError
		if errors.As(err, &ve) {
			err = fmt.Errorf("shardrpc: protocol version %d, this build speaks %d", ve.Version, Version)
		}
		return 0, 0, nil, err
	}
	return extra[0], binary.LittleEndian.Uint64(extra[1:]), payload, nil
}

// connBufs are one connection's frame buffers, reused every step: tx
// holds the frame being encoded and sent, rx the last frame read — and
// with it every view decoded from that frame, which is valid until the
// next read on the connection. A full weight sync is the exception: its
// frame holds a whole copy of the weights, many times a delta step's, so
// both ends let it go once it has been sent and applied rather than
// keep that copy live for the connection's life.
type connBufs struct{ tx, rx []byte }

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
// payload as the sender holds it. Rows nil means the values cover the
// whole tensor densely; otherwise the patch carries len(Rows) rows of the
// parameter's column width, in Rows order — which for gradients is the
// first-write order the deterministic reduce depends on. With Cols 0,
// Values holds those rows packed; with Cols > 0, Values is the
// parameter's whole row-major storage, Cols wide, and the encoder reads
// each row where it lives — so a sender ships rows without gathering
// them into a copy first.
type tensorPatch struct {
	Param  int
	Rows   []int32
	Values []float64
	Cols   int
}

// patchView is a decoded tensorPatch left in the frame it arrived in:
// Rows and Values are views into the connection's receive buffer, valid
// until the next read on that connection. Dense patches carry no rows.
type patchView struct {
	Param  int
	Dense  bool
	Rows   wire.I32View
	Values wire.F64View
}

// execReq is one shard step as the coordinator sends it: the candidate,
// the batch, and whatever weight synchronization this worker needs to be
// exact before computing. Full and Delta reference the master's storage.
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

// execView is a decoded exec request. Its float vectors are views into
// the frame it was decoded from, valid until the next read on the
// connection; the assignment and the bags are decoded into storage the
// view owns and reuses from one decode to the next.
type execView struct {
	Step       uint64
	Assignment space.Assignment

	WeightsMode byte
	FromVersion uint64
	ToVersion   uint64
	Full        []wire.F64View
	Delta       []patchView

	NumExamples int
	NumDense    int
	Dense       wire.F64View
	Labels      wire.F64View
	Sparse      [][][]int // bags carved out of ids with 3-index slices
	ids         []int
}

// execResult is the worker's answer: the exact loss bits and the exact
// gradient bits of its replica, in param order.
type execResult struct {
	Step    uint64
	Version uint64 // weight version the worker now holds
	Loss    float64
	Grads   []tensorPatch
}

// resultView is a decoded exec result; Grads are views into the frame
// (see patchView).
type resultView struct {
	Step    uint64
	Version uint64
	Loss    float64
	Grads   []patchView
}

// The encoders append their payload to buf and return it; the decoders
// read a payload that is consumed exactly.

func encodeHello(buf []byte, h *hello) []byte {
	e := wire.Enc{Buf: buf}
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

func encodeHelloAck(buf []byte, a *helloAck) []byte {
	e := wire.Enc{Buf: buf}
	e.U32(a.NumParams)
	return e.Buf
}

func decodeHelloAck(payload []byte) (*helloAck, error) {
	d := wire.NewDec(payload)
	a := &helloAck{NumParams: d.U32()}
	return a, finish(d, "hello ack")
}

// encodeExec appends r to buf, grown once to the request's exact size:
// a frame that carries a full weight sync would otherwise regrow row by
// row.
func encodeExec(buf []byte, r *execReq) []byte {
	e := wire.Enc{Buf: slices.Grow(buf, execLen(r))}
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

// execLen is the exact byte count encodeExec appends for r.
func execLen(r *execReq) int {
	n := 8 + 4 + 4*len(r.Assignment) + 1 + 8 + 8
	switch r.WeightsMode {
	case weightsFull:
		n += 4
		for _, row := range r.Full {
			n += 4 + 8*len(row)
		}
	case weightsDelta:
		n += 4
		for _, p := range r.Delta {
			values := len(p.Values)
			if p.Rows != nil {
				n += 4 + 4*len(p.Rows)
				if p.Cols > 0 {
					values = p.Cols * len(p.Rows)
				}
			}
			n += 4 + 1 + 4 + 8*values
		}
	}
	n += 4 + 4 + 4 + 8*len(r.Dense) + 4 + 8*len(r.Labels) + 4
	for _, table := range r.Sparse {
		n += 4
		for _, bag := range table {
			n += 4 + 4*len(bag)
		}
	}
	return n
}

// decodeExec decodes payload into r, reusing r's storage.
func decodeExec(payload []byte, r *execView) error {
	d := wire.NewDec(payload)
	r.Step = d.U64()
	r.Assignment = d.AppendInts(r.Assignment[:0])
	r.WeightsMode = d.U8()
	r.FromVersion = d.U64()
	r.ToVersion = d.U64()
	r.Full, r.Delta = r.Full[:0], r.Delta[:0]
	switch r.WeightsMode {
	case weightsNone:
	case weightsFull:
		n := int(d.U32())
		// Each row needs at least its 4-byte length prefix.
		if d.Count(n, 4, "matrix row") {
			for i := 0; i < n && d.Err() == nil; i++ {
				r.Full = append(r.Full, d.F64View())
			}
		}
	case weightsDelta:
		r.Delta = decodePatches(d, r.Delta)
	default:
		d.Failf("unknown weights mode %d", r.WeightsMode)
	}
	r.NumExamples = int(d.U32())
	r.NumDense = int(d.U32())
	r.Dense = d.F64View()
	r.Labels = d.F64View()
	nt := int(d.U32())
	r.Sparse = r.Sparse[:0]
	if d.Count(nt, 4, "sparse tables") {
		// Every id is 4 payload bytes, so this capacity holds them all
		// and no bag is left pointing into a stale array.
		r.ids = slices.Grow(r.ids[:0], d.Remaining()/4)
		r.Sparse = slices.Grow(r.Sparse, nt)[:nt]
		for t := range r.Sparse {
			ne := int(d.U32())
			if !d.Count(ne, 4, "sparse examples") {
				break
			}
			bags := slices.Grow(r.Sparse[t][:0], ne)[:ne]
			for i := range bags {
				start := len(r.ids)
				r.ids = d.AppendInts(r.ids)
				bags[i] = r.ids[start:len(r.ids):len(r.ids)]
			}
			r.Sparse[t] = bags
		}
	}
	return finish(d, "exec")
}

func encodeExecResult(buf []byte, r *execResult) []byte {
	e := wire.Enc{Buf: buf}
	e.U64(r.Step)
	e.U64(r.Version)
	e.F64(r.Loss)
	encodePatches(&e, r.Grads)
	return e.Buf
}

// decodeExecResult decodes payload into r, reusing r's storage.
func decodeExecResult(payload []byte, r *resultView) error {
	d := wire.NewDec(payload)
	r.Step = d.U64()
	r.Version = d.U64()
	r.Loss = d.F64()
	r.Grads = decodePatches(d, r.Grads[:0])
	return finish(d, "exec result")
}

func encodeError(buf []byte, msg string) []byte {
	e := wire.Enc{Buf: buf}
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
			e.F64s(p.Values)
			continue
		}
		e.U8(1)
		e.I32s(p.Rows)
		if p.Cols > 0 {
			e.F64Rows(p.Values, p.Cols, p.Rows)
		} else {
			e.F64s(p.Values)
		}
	}
}

// decodePatches appends a patch list's views to ps.
func decodePatches(d *wire.Dec, ps []patchView) []patchView {
	n := int(d.U32())
	if !d.Count(n, 6, "patch") {
		return ps
	}
	for i := 0; i < n; i++ {
		p := patchView{Param: int(d.U32())}
		switch d.U8() {
		case 0:
			p.Dense = true
		case 1:
			p.Rows = d.I32View()
		default:
			d.Failf("invalid patch kind")
		}
		p.Values = d.F64View()
		if d.Err() != nil {
			return ps
		}
		ps = append(ps, p)
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
