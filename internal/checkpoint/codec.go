package checkpoint

import (
	"fmt"
	"io"

	"h2onas/internal/wire"
)

// A snapshot file is one internal/wire frame — magic "H2ONASCK", format
// version, payload length, CRC32, payload — with no extra header fields
// (24 header bytes). The payload is a fixed field sequence in the wire
// codec (see encodePayload/decodePayload, which must mirror each other
// exactly). Version 2 appends the strategy name and opaque
// strategy-state blob after the v1 fields; version 1 files decode with
// those fields empty. The envelope detects a truncated write, a torn
// page or a flipped bit before any state is trusted, and the decoder
// bounds every declared length against the bytes actually present, so
// hostile or garbage input can never drive large allocations or panics.

const (
	magic = "H2ONASCK"
	// Version is the current snapshot wire-format version. Version 2
	// added the Strategy/StrategyState fields.
	Version = 2

	headerLen = 8 + 4 + 8 + 4

	// maxPayload rejects absurd declared payload sizes outright (1 GiB —
	// far above any real snapshot).
	maxPayload = 1 << 30
)

var format = wire.Format{Magic: magic, Version: Version, MaxPayload: maxPayload}

// Decode errors are the envelope's (wire.ErrBadMagic, wire.ErrTruncated,
// wire.ErrChecksum, *wire.VersionError for a snapshot written by a newer
// build). Manager treats any of them as "this snapshot is unusable, fall
// back to an older one".

// EncodeBytes returns the snapshot in the versioned, checksummed wire
// format.
func EncodeBytes(s *Snapshot) []byte {
	frame := encodePayload(format.Reserve(nil), s)
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

// encodePayload appends the snapshot fields to buf. decodePayload reads
// the identical sequence.
func encodePayload(buf []byte, s *Snapshot) []byte {
	e := wire.Enc{Buf: buf}
	e.U64(uint64(s.Step))
	e.U64(uint64(s.BatchesConsumed))
	e.U64(uint64(s.CreatedAtUnix))
	e.U64(s.RNG)
	e.Str(s.Fingerprint)
	e.F64(s.Baseline)
	e.Bool(s.BaselineSet)
	e.U64(uint64(s.CtrlSteps))
	e.U64(uint64(s.AdamT))
	e.Mat(s.PolicyLogits)
	e.Mat(s.Weights)
	e.Mat(s.AdamM)
	e.Mat(s.AdamV)
	e.U32(uint32(len(s.History)))
	for _, h := range s.History {
		e.U64(uint64(h.Step))
		e.F64(h.MeanReward)
		e.F64(h.MeanQ)
		e.F64(h.Entropy)
		e.F64(h.Confidence)
	}
	// v2 fields follow the complete v1 sequence, so a v1 payload is a
	// prefix of a v2 one and the decoder can branch on the file version.
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
	s.Baseline = d.F64()
	s.BaselineSet = d.Bool()
	s.CtrlSteps = int64(d.U64())
	s.AdamT = int64(d.U64())
	s.PolicyLogits = d.Mat()
	s.Weights = d.Mat()
	s.AdamM = d.Mat()
	s.AdamV = d.Mat()
	n := int(d.U32())
	// Each history record is 40 bytes; cap the count by what is present.
	if d.Count(n, 40, "history") {
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
