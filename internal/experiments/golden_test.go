package experiments

import (
	"bytes"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden")

// checkReportGolden compares the metrics of r whose names start with
// prefix, as %016x of math.Float64bits in name order, and with rows also
// its table, against testdata/golden/<file> (-update-golden rewrites it).
func checkReportGolden(t *testing.T, file string, r *Report, prefix string, rows bool) {
	t.Helper()
	var got bytes.Buffer
	var keys []string
	for k := range r.Metrics {
		if strings.HasPrefix(k, prefix) {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(&got, "%s %016x\n", k, math.Float64bits(r.Metrics[k]))
	}
	if rows {
		for _, row := range r.Rows {
			fmt.Fprintf(&got, "row %s\n", strings.Join(row, " | "))
		}
	}
	path := filepath.Join("testdata", "golden", file)
	if *updateGolden {
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("%s diverged from %s\n got: %s\nwant: %s", r.ID, path, got.Bytes(), want)
	}
}

// TestGoldenExtSearchAlgorithms pins the ext-algos battery bit for bit at
// smoke and quick scale: every metric and every row.
func TestGoldenExtSearchAlgorithms(t *testing.T) {
	checkReportGolden(t, "ext_algos_smoke.txt", ExtSearchAlgorithms(Smoke()), "", true)
	checkReportGolden(t, "ext_algos_quick.txt", ExtSearchAlgorithms(Quick()), "", true)
}

// TestGoldenFig10ProductionCV pins the CV half of Figure 10 bit for bit:
// the cv_* metrics of the five analytic production-model searches.
func TestGoldenFig10ProductionCV(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the DLRM half's super-network searches too")
	}
	checkReportGolden(t, "fig10_cv_smoke.txt", Fig10Production(Smoke()), "cv_", false)
}
