package h2onas

import (
	"io"

	"h2onas/internal/hwsim"
)

// Hardware extras: custom chip definitions (the "late binding" workflow of
// the paper's conclusion), the memory-capacity check, and
// serving-under-load analysis.

// LoadChip reads a chip configuration from datasheet-unit JSON (see
// examples/futurechip for the format). Searches, simulations and the
// performance model all retarget to it without code changes.
func LoadChip(r io.Reader) (Chip, error) { return hwsim.LoadChip(r) }

// SaveChip writes a chip configuration as JSON.
func SaveChip(w io.Writer, c Chip) error { return hwsim.SaveChip(w, c) }

var (
	// FitsMemory reports whether a graph fits the chip's HBM (the launch
	// constraint of Section 6.1).
	FitsMemory = hwsim.FitsMemory
	// MaxQPSUnderP99 finds the highest sustainable rate within a P99
	// target — the paper's serving objective in full.
	MaxQPSUnderP99 = hwsim.MaxQPSUnderP99
)

// WriteDot renders a graph in Graphviz DOT format.
func WriteDot(w io.Writer, g *Graph) error { return g.WriteDot(w) }
