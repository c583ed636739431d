package models

import (
	"fmt"
	"strconv"
	"strings"

	"h2onas/internal/arch"
	"h2onas/internal/hwsim"
	"h2onas/internal/space"
)

// family is one numbered line of the zoo: its members are named prefix
// followed by a variant number 0..last.
type family struct {
	prefix string
	last   int
	build  func(i, batch int) *arch.Graph
}

// families is the zoo's name table; Lookup resolves against it and Names
// prints it. A prefix that extends another ("coatnet-h" / "coatnet-")
// comes first, so the longer one claims its names.
var families = []family{
	{"coatnet-h", len(coatNetVariants) - 1, func(i, batch int) *arch.Graph { return coatNetAt(CoAtNetH(i), batch) }},
	{"coatnet-", len(coatNetVariants) - 1, func(i, batch int) *arch.Graph { return coatNetAt(CoAtNet(i), batch) }},
	{"efficientnet-hb", 7, func(i, batch int) *arch.Graph { return eNetAt(EfficientNetH(i), batch) }},
	{"efficientnet-b", 7, func(i, batch int) *arch.Graph { return eNetAt(EfficientNetX(i), batch) }},
}

// Lookup resolves a model-zoo name (case-insensitive; see Names) to a
// batch-parametric graph builder. Variant names must match exactly:
// "efficientnet-b5" resolves, "efficientnet-b5xyz" (trailing garbage) and
// "efficientnet-b9" (no such variant) are rejected with a one-line error,
// so a name from a flag or a request never reaches a constructor's panic.
//
// The builder returns the model at the given per-chip batch as it is
// served — the DLRMs on a single chip (Table 2). Batch 0 selects the
// zoo's reference shape instead: the spec's own training batch and, for
// the DLRMs, the sharded 128-chip deployment.
func Lookup(name string) (hwsim.GraphBuilder, error) {
	lower := strings.ToLower(name)
	for _, f := range families {
		if !strings.HasPrefix(lower, f.prefix) {
			continue
		}
		i, err := variantIndex(name, strings.TrimPrefix(lower, f.prefix), f.last)
		if err != nil {
			return nil, err
		}
		return func(batch int) *arch.Graph { return f.build(i, batch) }, nil
	}
	if lower == "dlrm" || lower == "dlrm-h" {
		return func(batch int) *arch.Graph {
			cfg := ProductionShapeDLRMConfig()
			if batch > 0 {
				cfg.Batch = batch
				cfg.Chips = 1 // serving is single-chip (Table 2)
			}
			ds := space.NewDLRMSpace(cfg)
			if lower == "dlrm-h" {
				return ds.Graph(DLRMH(ds))
			}
			return ds.Graph(BaselineDLRM(ds))
		}, nil
	}
	return nil, fmt.Errorf("unknown model %q", name)
}

// Names lists the names Lookup resolves, one family per line.
func Names() []string {
	var lines []string
	for _, f := range families {
		lines = append(lines, fmt.Sprintf("%s0 … %s%d", f.prefix, f.prefix, f.last))
	}
	return append(lines, "dlrm, dlrm-h")
}

// variantIndex parses the variant number that must make up the entire
// suffix of name. Round-tripping through Itoa rejects trailing garbage,
// signs, and leading zeros ("b5xyz", "b+5", "b05"); the range check
// rejects variants the family doesn't have.
func variantIndex(name, suffix string, last int) (int, error) {
	i, err := strconv.Atoi(suffix)
	if err != nil || strconv.Itoa(i) != suffix {
		return 0, fmt.Errorf("bad variant %q: %q is not a variant number", name, suffix)
	}
	if i < 0 || i > last {
		return 0, fmt.Errorf("bad variant %q: variant %d outside 0..%d", name, i, last)
	}
	return i, nil
}

func coatNetAt(s CoAtNetSpec, batch int) *arch.Graph {
	if batch > 0 {
		s.Batch = batch
	}
	return s.Graph()
}

func eNetAt(s ENetSpec, batch int) *arch.Graph {
	if batch > 0 {
		s.Batch = batch
	}
	return s.Graph()
}
