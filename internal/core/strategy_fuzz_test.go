package core

import (
	"bytes"
	"path/filepath"
	"sort"
	"testing"

	"h2onas/internal/checkpoint"
	"h2onas/internal/wire/wiretest"
)

// FuzzStrategyState throws arbitrary bytes at every strategy's state
// decoder, the bytes a resumed run reads from disk. The contract: a
// fresh strategy's RestoreState never panics, and a blob it accepts
// leaves a strategy whose StateBytes restore into a second fresh one
// and re-serialize identically. The seeds are the strategy blobs of the
// committed snapshot goldens, each tried against all four strategies.
//
//	go test -run='^$' -fuzz='^FuzzStrategyState$' ./internal/core
func FuzzStrategyState(f *testing.F) {
	goldens, err := filepath.Glob(filepath.Join("testdata", "golden", "snapshot_*.hex"))
	if err != nil || len(goldens) == 0 {
		f.Fatalf("no snapshot goldens (%v)", err)
	}
	for _, path := range goldens {
		snap, err := checkpoint.Decode(bytes.NewReader(wiretest.Hex(f, path)))
		if err != nil {
			f.Fatalf("%s: %v", path, err)
		}
		f.Add(snap.StrategyState)
	}
	f.Add([]byte{})
	builds := byteGoldenStrategies(f)
	names := make([]string, 0, len(builds))
	for name := range builds {
		names = append(names, name)
	}
	sort.Strings(names)

	f.Fuzz(func(t *testing.T, data []byte) {
		for _, name := range names {
			s := builds[name]()
			if s.RestoreState(data) != nil {
				continue
			}
			s.Best()
			s.Diagnostics()
			blob := s.StateBytes()
			again := builds[name]()
			if err := again.RestoreState(blob); err != nil {
				t.Fatalf("%s accepted %x but refuses its own re-serialization: %v", name, data, err)
			}
			if !bytes.Equal(again.StateBytes(), blob) {
				t.Fatalf("%s: the re-serialization of %x is not a fixed point of restore", name, data)
			}
		}
	})
}
