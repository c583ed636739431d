package checkpoint

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"testing"

	"h2onas/internal/wire"
)

// maxDecodeAmplification bounds the heap bytes decoding a current-version
// payload allocates per payload byte. The largest ratio is a param state:
// 104 bytes of nn.ParamState per 17-byte minimal encoding.
const maxDecodeAmplification = 8

// FuzzDecodeSnapshot throws arbitrary bytes at the checkpoint loader.
// The contract under fuzzing: Decode either returns an error or returns
// a snapshot that re-encodes to exactly the input — it never panics,
// never hangs, and never silently loads garbage. Seed corpus files live
// in testdata/fuzz/FuzzDecodeSnapshot; run the full fuzzer with
//
//	go test -fuzz=FuzzDecodeSnapshot ./internal/checkpoint
func FuzzDecodeSnapshot(f *testing.F) {
	valid := EncodeBytes(sampleSnapshot())
	f.Add(valid)
	f.Add(valid[:len(valid)/2]) // mid-payload truncation
	f.Add(valid[:headerLen])    // header only
	f.Add([]byte(magic))        // magic only
	f.Add([]byte{})             // empty
	f.Add([]byte("not a checkpoint at all, just prose"))
	flipped := append([]byte(nil), valid...)
	flipped[headerLen+3] ^= 0x40
	f.Add(flipped) // payload bit flip → checksum failure
	future := append([]byte(nil), valid...)
	binary.LittleEndian.PutUint32(future[8:12], Version+7)
	f.Add(future) // version from a newer build
	huge := append([]byte(nil), valid...)
	binary.LittleEndian.PutUint64(huge[12:20], maxPayload+1)
	f.Add(huge)                                   // implausible payload length
	f.Add(encodeLegacyBytes(2, legacySnapshot())) // version-2 file from an older build
	v1 := legacySnapshot()
	v1.Strategy, v1.StrategyState = "", nil
	f.Add(encodeLegacyBytes(1, v1)) // version-1 file

	f.Fuzz(func(t *testing.T, data []byte) {
		// The payload decoder's allocation bound: a declared count buys no
		// memory beyond a small multiple of the payload bytes present. (The
		// envelope's own up-front read is bounded separately, by wire.)
		if version, payload, err := wire.ReadFileFrame(bytes.NewReader(data), format); err == nil && version == Version {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			decodePayload(payload, version)
			runtime.ReadMemStats(&after)
			if got, bound := after.TotalAlloc-before.TotalAlloc, uint64(maxDecodeAmplification*len(payload)+1<<16); got > bound {
				t.Fatalf("decoding a %d-byte payload allocated %d bytes, bound %d", len(payload), got, bound)
			}
		}
		s, err := Decode(bytes.NewReader(data))
		if err != nil {
			return
		}
		// A successful decode must be faithful. Current-version input must
		// re-encode to the input byte-for-byte (bytes.Equal, not DeepEqual,
		// keeps NaN payload bits honest); older-version input re-encodes at
		// the current version, so only the re-encoding is required to be a
		// stable fixed point.
		re := EncodeBytes(s)
		if binary.LittleEndian.Uint32(data[8:12]) == Version && !bytes.Equal(re, data) {
			t.Fatalf("decode succeeded but re-encoding differs from the %d-byte input", len(data))
		}
		s2, err := Decode(bytes.NewReader(re))
		if err != nil {
			t.Fatalf("re-decoding a re-encoded snapshot failed: %v", err)
		}
		if !bytes.Equal(EncodeBytes(s2), re) {
			t.Fatal("second round trip diverged")
		}
	})
}
