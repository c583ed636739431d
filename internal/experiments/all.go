package experiments

import "fmt"

// Runner regenerates one paper artifact at the given scale.
type Runner struct {
	ID       string
	Artifact string // the paper table/figure it reproduces
	Run      func(Scale) *Report
}

// Registry lists every experiment in paper order.
func Registry() []Runner {
	return []Runner{
		{"fig4", "Figure 4b/4c", func(Scale) *Report { return Fig4Roofline() }},
		{"fig5", "Figure 5a/5b/5c", Fig5RewardAblation},
		{"table1", "Table 1", Table1PerfModel},
		{"table2", "Table 2", func(Scale) *Report { return Table2Configs() }},
		{"fig6", "Figure 6", func(Scale) *Report { return Fig6CoAtNetPareto() }},
		{"table3", "Table 3", func(Scale) *Report { return Table3Ablation() }},
		{"fig7", "Figure 7", func(Scale) *Report { return Fig7HWAnalysis() }},
		{"fig8", "Figure 8", func(Scale) *Report { return Fig8DLRMStepTime() }},
		{"table4", "Table 4", func(Scale) *Report { return Table4EfficientNetH() }},
		{"fig9", "Figure 9", func(Scale) *Report { return Fig9Energy() }},
		{"fig10", "Figure 10", Fig10Production},
		{"table5", "Table 5", func(Scale) *Report { return Table5SpaceSizes() }},
	}
}

// Lookup returns the runner with the given ID, searching the paper
// registry and then the extension registry.
func Lookup(id string) (Runner, error) {
	all := append(Registry(), ExtensionRegistry()...)
	all = append(all, AblationRegistry()...)
	for _, r := range all {
		if r.ID == id {
			return r, nil
		}
	}
	return Runner{}, fmt.Errorf("experiments: unknown experiment %q", id)
}
