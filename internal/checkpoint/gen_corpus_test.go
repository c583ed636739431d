package checkpoint

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"testing"
)

// TestGenerateSeedCorpus regenerates the checked-in fuzz seed corpus
// under testdata/fuzz/FuzzDecodeSnapshot. It is a no-op unless
// CHECKPOINT_WRITE_CORPUS=1 is set, so a normal test run never touches
// the tree:
//
//	CHECKPOINT_WRITE_CORPUS=1 go test -run TestGenerateSeedCorpus ./internal/checkpoint
//
// Regenerate after any wire-format change so the corpus keeps seeding
// the fuzzer with a structurally valid snapshot.
func TestGenerateSeedCorpus(t *testing.T) {
	if os.Getenv("CHECKPOINT_WRITE_CORPUS") != "1" {
		t.Skip("set CHECKPOINT_WRITE_CORPUS=1 to rewrite testdata/fuzz/FuzzDecodeSnapshot")
	}
	valid := EncodeBytes(sampleSnapshot())
	truncated := valid[:len(valid)/2]
	flipped := append([]byte(nil), valid...)
	flipped[headerLen+3] ^= 0x40
	future := append([]byte(nil), valid...)
	binary.LittleEndian.PutUint32(future[8:12], Version+7)
	v1 := legacySnapshot()
	v1.Strategy, v1.StrategyState = "", nil

	seeds := map[string][]byte{
		"seed-valid":      valid,
		"seed-v1":         encodeLegacyBytes(1, v1),
		"seed-v2":         encodeLegacyBytes(2, legacySnapshot()),
		"seed-truncated":  truncated,
		"seed-bitflip":    flipped,
		"seed-future-ver": future,
		"seed-magic-only": []byte(magic),
		"seed-empty":      {},
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzDecodeSnapshot")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for name, data := range seeds {
		body := fmt.Sprintf("go test fuzz v1\n[]byte(%s)\n", strconv.Quote(string(data)))
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
