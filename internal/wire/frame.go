package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"slices"
)

// Format describes one envelope (little-endian):
//
//	magic   [8]byte      Magic
//	version uint32       format version, 1..Version
//	extra   [Extra]byte  fixed format-specific header fields
//	length  uint64       payload byte count, at most MaxPayload
//	crc32   uint32       IEEE CRC of the payload
//	payload [length]byte
//
// The checksum means a truncated write, a torn page or a flipped bit is
// detected before any payload byte is trusted.
type Format struct {
	// Magic is the 8-byte file or protocol signature.
	Magic string
	// Version is written by WriteFrame and is the newest ReadFrame accepts.
	Version uint32
	// Extra is the size of the format's own fixed header fields.
	Extra int
	// MaxPayload rejects absurd declared payload sizes outright.
	MaxPayload uint64
}

// HeaderLen is the byte count in front of the payload.
func (f Format) HeaderLen() int { return 8 + 4 + f.Extra + 8 + 4 }

// Envelope errors. Readers treat any of them as "this frame is unusable";
// the distinctions exist for logging and tests.
var (
	ErrBadMagic  = errors.New("wire: bad magic")
	ErrTruncated = errors.New("wire: truncated frame")
	ErrChecksum  = errors.New("wire: payload checksum mismatch")
)

// VersionError reports a frame written in a newer format version.
type VersionError struct{ Version, Supported uint32 }

func (e *VersionError) Error() string {
	return fmt.Sprintf("format version %d is newer than the newest supported version %d — written by a newer build", e.Version, e.Supported)
}

// maxUpfront caps what a declared length alone can make ReadFrame
// allocate; beyond it the buffer grows only as payload bytes arrive.
// Every frame and snapshot at this repository's scale is far below it.
const maxUpfront = 64 << 20

// Reserve returns buf emptied, with f's header reserved in front: a
// payload encoded by appending to the result is framed in place by Seal,
// never copied behind a separately built header.
func (f Format) Reserve(buf []byte) []byte {
	return append(buf[:0], make([]byte, f.HeaderLen())...)
}

// Seal fills in the header reserved in front of frame's payload (frame
// comes from Reserve, payload appended) with extra, which must be f.Extra
// bytes. The sealed frame goes out in one Write.
func (f Format) Seal(frame, extra []byte) {
	if len(f.Magic) != 8 || len(extra) != f.Extra {
		panic(fmt.Sprintf("wire: frame %q with %d extra header bytes, format declares %d", f.Magic, len(extra), f.Extra))
	}
	hl := f.HeaderLen()
	payload := frame[hl:]
	hdr := append(frame[:0:hl], f.Magic...)
	hdr = binary.LittleEndian.AppendUint32(hdr, f.Version)
	hdr = append(hdr, extra...)
	hdr = binary.LittleEndian.AppendUint64(hdr, uint64(len(payload)))
	binary.LittleEndian.AppendUint32(hdr, crc32.ChecksumIEEE(payload))
}

// WriteFrame writes one frame — the header (with extra, which must be
// f.Extra bytes) and the payload — in one Write. The caller owns
// deadlines on w.
func WriteFrame(w io.Writer, f Format, extra, payload []byte) error {
	frame := append(f.Reserve(make([]byte, 0, f.HeaderLen()+len(payload))), payload...)
	f.Seal(frame, extra)
	_, err := w.Write(frame)
	return err
}

// readErr classifies a failed read: running out of bytes is truncation.
func readErr(part string, err error) error {
	if err == io.EOF || err == io.ErrUnexpectedEOF {
		return fmt.Errorf("%w: %s: %w", ErrTruncated, part, err)
	}
	return fmt.Errorf("wire: reading %s: %w", part, err)
}

// ReadFrame reads and validates one frame from a stream, returning its
// version, its extra header bytes and its payload. It returns an error —
// never panics, never returns unverified bytes — on any malformed,
// truncated or corrupted input; a stream that ends cleanly before the
// first header byte yields an error wrapping io.EOF.
//
// The frame is read into buf when buf's capacity covers the header and
// the declared payload, and into a new buffer otherwise (nil always
// takes a new one). The payload starts at the buffer's first byte, so a
// caller that passes each returned payload back as the next buf reads a
// stream of frames into one buffer, allocating only when a frame
// outgrows it. The results alias that buffer until it is reused.
func ReadFrame(r io.Reader, f Format, buf []byte) (version uint32, extra, payload []byte, err error) {
	hl := f.HeaderLen()
	reused := cap(buf) > 0
	if cap(buf) < hl {
		buf = make([]byte, hl)
	}
	hdr := buf[:hl]
	if _, err := io.ReadFull(r, hdr); err != nil {
		return 0, nil, nil, readErr("header", err)
	}
	if string(hdr[:8]) != f.Magic {
		return 0, nil, nil, ErrBadMagic
	}
	version = binary.LittleEndian.Uint32(hdr[8:12])
	if version > f.Version {
		return 0, nil, nil, &VersionError{Version: version, Supported: f.Version}
	}
	if version == 0 {
		return 0, nil, nil, errors.New("wire: invalid format version 0")
	}
	length := binary.LittleEndian.Uint64(hdr[12+f.Extra:])
	if length > f.MaxPayload {
		return 0, nil, nil, fmt.Errorf("wire: implausible payload size %d", length)
	}
	sum := binary.LittleEndian.Uint32(hdr[12+f.Extra+8:])
	// One read for any realistic frame, into buf or one allocation; a
	// larger declared length has to be backed by bytes before it gets
	// memory. The header moves behind the up-front payload span, where
	// the payload read cannot overwrite it.
	n := int(min(length, maxUpfront))
	if cap(buf) < n+hl {
		// A stream's frame sizes wander: a reused buffer that has to grow
		// takes a quarter more than this frame (at most 512 KiB more), so
		// one whose frames creep upward reallocates rarely, not at every
		// new maximum.
		c := n + hl
		if reused {
			c += min(c/4, 512<<10)
		}
		grown := make([]byte, n+hl, c)
		copy(grown[n:], hdr)
		buf = grown
	} else {
		copy(buf[n:n+hl], hdr)
	}
	extra = buf[n+12 : n+12+f.Extra : n+12+f.Extra]
	payload = buf[:n]
	if uint64(n) < length {
		// Growth below may reuse the bytes behind the payload.
		extra = append([]byte(nil), extra...)
	}
	filled := 0
	for {
		if _, err := io.ReadFull(r, payload[filled:]); err != nil {
			return 0, nil, nil, readErr("payload", err)
		}
		filled = len(payload)
		if uint64(filled) == length {
			break
		}
		// Beyond the up-front cap: double for as long as bytes keep coming.
		grow := int(min(length-uint64(filled), uint64(filled)))
		payload = slices.Grow(payload, grow)[:filled+grow]
	}
	if crc32.ChecksumIEEE(payload) != sum {
		return 0, nil, nil, ErrChecksum
	}
	return version, extra, payload, nil
}

// ReadFileFrame reads a frame that must be the reader's entire content —
// a snapshot or journal file. Anything after the payload is an error.
func ReadFileFrame(r io.Reader, f Format) (version uint32, payload []byte, err error) {
	version, _, payload, err = ReadFrame(r, f, nil)
	if err != nil {
		return 0, nil, err
	}
	if n, err := io.CopyN(io.Discard, r, 1); n != 0 || err != io.EOF {
		return 0, nil, errors.New("wire: trailing bytes after payload")
	}
	return version, payload, nil
}
