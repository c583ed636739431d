package arch

import (
	"fmt"
	"io"
	"strings"
)

// WriteDot renders the graph in Graphviz DOT format: one node per op,
// colored by execution unit and sized annotations for compute and memory,
// with sequential edges along the simulated critical path. Repeated layers
// (op Weight > 1) are annotated rather than unrolled.
//
//	dot -Tsvg model.dot > model.svg
func (g *Graph) WriteDot(w io.Writer) error {
	var b strings.Builder
	fmt.Fprintf(&b, "digraph %q {\n", g.Name)
	b.WriteString("  rankdir=TB;\n  node [shape=box, style=filled, fontname=\"monospace\", fontsize=10];\n")
	fmt.Fprintf(&b, "  label=%q;\n", fmt.Sprintf("%s — batch %d, %.1fM params, %.1f GFLOPs",
		g.Name, g.Batch, g.Params/1e6, g.TotalFLOPs()/1e9))

	for i := range g.Ops {
		op := &g.Ops[i]
		label := fmt.Sprintf("%s\\n%s", op.Name, op.Kind)
		if op.FLOPs > 0 {
			label += fmt.Sprintf("\\n%.2g GFLOPs", op.TotalFLOPs()/1e9)
		}
		if bytes := op.InputBytes + op.OutputBytes; bytes > 0 {
			label += fmt.Sprintf("\\n%.2g MB", bytes/1e6)
		}
		if op.Repeat() > 1 {
			label += fmt.Sprintf("\\n×%.0f layers", op.Repeat())
		}
		fmt.Fprintf(&b, "  n%d [label=\"%s\", fillcolor=%q];\n", i, label, unitColor(op.Unit))
		if i > 0 {
			fmt.Fprintf(&b, "  n%d -> n%d;\n", i-1, i)
		}
	}
	b.WriteString("}\n")
	_, err := io.WriteString(w, b.String())
	return err
}

// unitColor maps execution units to fill colors.
func unitColor(u Unit) string {
	switch u {
	case MXU:
		return "#aecbfa" // blue: matrix units
	case VPU:
		return "#ccff90" // green: vector units
	case MemoryUnit:
		return "#fff0b3" // yellow: data movement
	case NetworkUnit:
		return "#f8bbd0" // pink: collectives
	default:
		return "#eeeeee"
	}
}
