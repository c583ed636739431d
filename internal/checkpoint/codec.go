package checkpoint

import (
	"fmt"
	"io"

	"h2onas/internal/nn"
	"h2onas/internal/wire"
)

// A snapshot file is one internal/wire frame — magic "H2ONASCK", format
// version, payload length, CRC32, payload — with no extra header fields
// (24 header bytes). The payload is a fixed field sequence in the wire
// codec (see encodePayload/decodePayload, which must mirror each other
// exactly). Version 3 carries the optimizer state per param — kind,
// stepped rows, W, M, V — so a param the search never stepped costs a few
// bytes instead of its whole tensor. Versions 1 and 2 carried every param
// whole (v2 appended the strategy name and state blob; v1 also carried
// the typed controller state the blob superseded); both still decode,
// into nn.Whole states and with the controller fields dropped. The
// envelope detects a truncated write, a torn page or a flipped bit before
// any state is trusted, and the decoder bounds every declared length
// against the bytes actually present, so hostile or garbage input can
// never drive large allocations or panics.

const (
	magic = "H2ONASCK"
	// Version is the current snapshot wire-format version. Version 2
	// added the Strategy/StrategyState fields; version 3 made the
	// optimizer state per-param and row-sparse.
	Version = 3

	headerLen = 8 + 4 + 8 + 4

	// maxPayload rejects absurd declared payload sizes outright (1 GiB —
	// far above any real snapshot).
	maxPayload = 1 << 30

	// paramMinLen is the smallest encoded param state: its kind byte and
	// the counts of its four vectors (rows, W, M, V).
	paramMinLen = 1 + 4*4
	// historyLen is the encoded size of one StepRecord.
	historyLen = 5 * 8
)

var format = wire.Format{Magic: magic, Version: Version, MaxPayload: maxPayload}

// Decode errors are the envelope's (wire.ErrBadMagic, wire.ErrTruncated,
// wire.ErrChecksum, *wire.VersionError for a snapshot written by a newer
// build). Manager treats any of them as "this snapshot is unusable, fall
// back to an older one".

// EncodeBytes returns the snapshot in the versioned, checksummed wire
// format. The frame is encoded in one pass into one buffer, sized
// exactly from the snapshot before the first byte is written.
func EncodeBytes(s *Snapshot) []byte {
	frame := encodePayload(make([]byte, headerLen, headerLen+payloadLen(s)), s)
	format.Seal(frame, nil)
	return frame
}

// Decode reads a snapshot, validating magic, version, length and
// checksum. It returns an error — never panics, never silently loads
// garbage — on any malformed, truncated or corrupted input.
func Decode(r io.Reader) (*Snapshot, error) {
	version, payload, err := wire.ReadFileFrame(r, format)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	return decodePayload(payload, version)
}

// payloadLen is the exact byte count encodePayload appends for s.
func payloadLen(s *Snapshot) int {
	n := 4*8 + 4 + len(s.Fingerprint) + 8 + 4
	for _, ps := range s.Adam.Params {
		n += paramMinLen + 4*len(ps.Rows) + 8*(len(ps.W)+len(ps.M)+len(ps.V))
	}
	n += 4 + historyLen*len(s.History)
	return n + 4 + len(s.Strategy) + 4 + len(s.StrategyState)
}

// encodePayload appends the snapshot fields to buf. decodePayload reads
// the identical sequence.
func encodePayload(buf []byte, s *Snapshot) []byte {
	e := wire.Enc{Buf: buf}
	e.U64(uint64(s.Step))
	e.U64(uint64(s.BatchesConsumed))
	e.U64(uint64(s.CreatedAtUnix))
	e.U64(s.RNG)
	e.Str(s.Fingerprint)
	e.U64(uint64(s.Adam.T))
	e.U32(uint32(len(s.Adam.Params)))
	for _, ps := range s.Adam.Params {
		e.U8(byte(ps.Kind))
		e.I32s(ps.Rows)
		e.F64s(ps.W)
		e.F64s(ps.M)
		e.F64s(ps.V)
	}
	e.U32(uint32(len(s.History)))
	for _, h := range s.History {
		e.U64(uint64(h.Step))
		e.F64(h.MeanReward)
		e.F64(h.MeanQ)
		e.F64(h.Entropy)
		e.F64(h.Confidence)
	}
	e.Str(s.Strategy)
	e.Bytes(s.StrategyState)
	return e.Buf
}

func decodePayload(payload []byte, version uint32) (*Snapshot, error) {
	d := wire.NewDec(payload)
	s := &Snapshot{}
	s.Step = int64(d.U64())
	s.BatchesConsumed = int64(d.U64())
	s.CreatedAtUnix = int64(d.U64())
	s.RNG = d.U64()
	s.Fingerprint = d.Str()
	if version >= 3 {
		s.Adam.T = int64(d.U64())
		s.Adam.Params = decodeParams(d)
	} else {
		// The v1 controller state (baseline, baseline-set flag, step
		// count), superseded by StrategyState; core refuses v1 files.
		d.F64()
		d.Bool()
		d.U64()
		s.Adam.T = int64(d.U64())
		d.Mat() // v1 policy logits
		w := d.Mat()
		m := d.Mat()
		v := d.Mat()
		s.Adam.Params = wholeParams(d, w, m, v)
	}
	n := int(d.U32())
	if d.Count(n, historyLen, "history") {
		s.History = make([]StepRecord, n)
		for i := range s.History {
			s.History[i] = StepRecord{
				Step:       int64(d.U64()),
				MeanReward: d.F64(),
				MeanQ:      d.F64(),
				Entropy:    d.F64(),
				Confidence: d.F64(),
			}
		}
	}
	if version >= 2 {
		s.Strategy = d.Str()
		s.StrategyState = d.Bytes()
	}
	if err := d.Finish(); err != nil {
		return nil, fmt.Errorf("checkpoint: corrupt payload: %w", err)
	}
	return s, nil
}

// decodeParams reads the v3 per-param optimizer state. Shapes are
// checked against the network by nn.Adam.Import, not here.
func decodeParams(d *wire.Dec) []nn.ParamState {
	n := int(d.U32())
	if !d.Count(n, paramMinLen, "param") {
		return nil
	}
	params := make([]nn.ParamState, n)
	for i := range params {
		ps := &params[i]
		ps.Kind = nn.StateKind(d.U8())
		if ps.Kind > nn.SteppedRows {
			d.Failf("param %d has unknown state kind %d", i, ps.Kind)
		}
		if rv := d.I32View(); rv.Len() > 0 {
			ps.Rows = make([]int32, rv.Len())
			for k := range ps.Rows {
				ps.Rows[k] = rv.At(k)
			}
		}
		ps.W, ps.M, ps.V = f64s(d), f64s(d), f64s(d)
		if d.Err() != nil {
			return nil
		}
	}
	return params
}

// f64s reads an F64s vector, nil when empty — what nn.Adam.Export leaves
// in an Unstepped state, so a decoded snapshot equals the captured one.
func f64s(d *wire.Dec) []float64 {
	view := d.F64View()
	if view.Len() == 0 {
		return nil
	}
	v := make([]float64, view.Len())
	view.CopyTo(v)
	return v
}

// wholeParams converts the v1/v2 per-param weight and moment vectors
// into nn.Whole states.
func wholeParams(d *wire.Dec, w, m, v [][]float64) []nn.ParamState {
	if d.Err() != nil {
		return nil
	}
	if len(m) != len(w) || len(v) != len(w) {
		d.Failf("%d weight tensors with %d/%d moment vectors", len(w), len(m), len(v))
		return nil
	}
	params := make([]nn.ParamState, len(w))
	for i := range params {
		params[i] = nn.ParamState{Kind: nn.Whole, W: w[i], M: m[i], V: v[i]}
	}
	return params
}
