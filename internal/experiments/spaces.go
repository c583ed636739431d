package experiments

import (
	"fmt"

	"h2onas/internal/models"
	"h2onas/internal/space"
)

// Table2Configs regenerates Table 2: the model characteristics and
// hardware configurations of the three key domains.
func Table2Configs() *Report {
	r := newReport("table2", "Model characteristics and hardware configurations (cf. Table 2)",
		"domain", "baseline", "params", "GFLOPs/example", "training HW", "serving HW", "dominant cost")

	c0, c5 := models.CoAtNet(0).Graph(), models.CoAtNet(5).Graph()
	r.AddRow("VIT", "CoAtNet",
		fmt.Sprintf("%.0f–%.0fM", c0.Params/1e6, c5.Params/1e6),
		fmt.Sprintf("%.0f–%.0f", c0.TotalFLOPs()/64/1e9, c5.TotalFLOPs()/64/1e9),
		"128× TPUv4 (simulated)", "1× TPUv4i (simulated)", "training")

	ds := space.NewDLRMSpace(models.ProductionShapeDLRMConfig())
	g := ds.Graph(models.BaselineDLRM(ds))
	r.AddRow("DLRM", "internal (synthetic)",
		fmt.Sprintf("%.0fM", g.Params/1e6),
		fmt.Sprintf("%.4f", g.TotalFLOPs()/float64(ds.Config.Batch)/1e9),
		"128× TPUv4 (simulated)", "1× TPUv4i (simulated)", "training")

	b0, b7 := models.EfficientNetX(0).Graph(), models.EfficientNetX(7).Graph()
	r.AddRow("CNN", "EfficientNet-X",
		fmt.Sprintf("%.1f–%.0fM", b0.Params/1e6, b7.Params/1e6),
		fmt.Sprintf("%.1f–%.0f", b0.TotalFLOPs()/128/1e9, b7.TotalFLOPs()/128/1e9),
		"128× TPUv4 (simulated)", "1× TPUv4i (simulated)", "training")

	r.Metrics["coatnet_max_params_m"] = c5.Params / 1e6
	r.Metrics["enet_max_params_m"] = b7.Params / 1e6
	r.AddNote("paper: CoAtNet 25–688M params / 8.4–1060 GFLOPs; EfficientNet-X 7.6–199M / 1.8–186 GFLOPs; DLRM O(1000)M params")
	return r
}

// Table5SpaceSizes regenerates the Table 5 search-space size accounting.
func Table5SpaceSizes() *Report {
	r := newReport("table5", "Search-space sizes (cf. Table 5)",
		"space", "decisions", "log10(size)", "paper")

	cnn := space.NewCNNSpace(space.DefaultCNNConfig())
	dlrmProd := space.NewDLRMSpace(space.ProductionDLRMConfig())
	dlrmSmall := space.NewDLRMSpace(space.SmallDLRMConfig())
	tfm := space.NewTransformerSpace(space.DefaultViTConfig())
	hybrid := space.NewHybridViTSpace(space.DefaultViTConfig())

	add := func(name string, s *space.Space, paper string, metric string) {
		r.AddRow(name, fmt.Sprintf("%d", len(s.Decisions)), fmt.Sprintf("%.1f", s.Log10Size()), paper)
		r.Metrics[metric] = s.Log10Size()
	}
	add("CNN (7 blocks + resolution)", cnn.Space, "O(10^39)", "cnn_log10")
	add("DLRM (production shape)", dlrmProd.Space, "O(10^282)", "dlrm_log10")
	add("DLRM (small, searchable)", dlrmSmall.Space, "-", "dlrm_small_log10")
	add("Transformer (2 blocks)", tfm.Space, "O(10^8)", "tfm_log10")
	add("Hybrid ViT (2 conv + 2 TFM)", hybrid.Space, "O(10^21)", "hybrid_log10")

	r.AddNote("sizes are exact products of decision arities, carried in log10 (the raw counts overflow float64)")
	return r
}

// spaceForDLRM builds the search space for a DLRM config (shared helper).
func spaceForDLRM(cfg space.DLRMConfig) *space.DLRMSpace {
	return space.NewDLRMSpace(cfg)
}
