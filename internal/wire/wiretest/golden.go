// Package wiretest loads the committed byte goldens that pin the
// repository's on-disk and on-wire formats.
package wiretest

import (
	"encoding/hex"
	"os"
	"strings"
	"testing"
)

// Hex reads a byte golden: a file holding one line of hex.
func Hex(t testing.TB, path string) []byte {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing byte golden: %v", err)
	}
	data, err := hex.DecodeString(strings.TrimSpace(string(raw)))
	if err != nil {
		t.Fatalf("byte golden %s: %v", path, err)
	}
	return data
}
