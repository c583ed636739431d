package experiments

import (
	"fmt"
	"math"

	"h2onas/internal/hwsim"
	"h2onas/internal/models"
	"h2onas/internal/quality"
)

// Fig6CoAtNetPareto regenerates Figure 6: accuracy vs training throughput
// of the CoAtNet-H family against the baseline CoAtNet family at small
// (ImageNet1K), medium (ImageNet21K) and large (JFT-300M) pre-training
// datasets. Shape: CoAtNet-H improves the Pareto front — ≈1.5× training
// throughput at neutral accuracy across dataset sizes.
func Fig6CoAtNetPareto() *Report {
	r := newReport("fig6", "CoAtNet-H vs CoAtNet: accuracy vs training throughput (TPUv4)",
		"model", "dataset", "top-1 (%)", "throughput (img/s/chip)", "params (M)")
	chip := hwsim.TPUv4()
	datasets := []quality.Dataset{quality.ImageNet1K, quality.ImageNet21K, quality.JFT300M}

	type point struct{ acc, tput float64 }
	family := func(h bool) map[string]point {
		out := map[string]point{}
		for i := 0; i < models.CoAtNetFamilySize(); i++ {
			base := models.CoAtNet(i)
			spec := base
			name := fmt.Sprintf("H-%d", i)
			if h {
				spec = models.CoAtNetH(i)
				name = fmt.Sprintf("C-H-%d", i)
			}
			g := spec.Graph()
			tput := hwsim.TrainingThroughput(g, chip)
			for _, ds := range datasets {
				acc := quality.Accuracy(spec.Traits(base), ds)
				out[fmt.Sprintf("%s/%s", name, ds)] = point{acc, tput}
				r.AddRow(spec.Name, ds.String(),
					fmt.Sprintf("%.1f", acc),
					fmt.Sprintf("%.0f", tput),
					fmt.Sprintf("%.0f", g.Params/1e6))
			}
		}
		return out
	}
	baseline := family(false)
	optimized := family(true)

	// Headline: C5 vs C-H5 on JFT (the paper's flagship comparison).
	b := baseline[fmt.Sprintf("H-%d/%s", 5, quality.JFT300M)]
	o := optimized[fmt.Sprintf("C-H-%d/%s", 5, quality.JFT300M)]
	r.Metrics["h5_throughput_ratio"] = o.tput / b.tput
	r.Metrics["h5_accuracy_delta"] = o.acc - b.acc

	// Family-wide: geometric-mean throughput gain at (near-)neutral
	// accuracy.
	var geo, n float64
	for i := 0; i < models.CoAtNetFamilySize(); i++ {
		b := baseline[fmt.Sprintf("H-%d/%s", i, quality.JFT300M)]
		o := optimized[fmt.Sprintf("C-H-%d/%s", i, quality.JFT300M)]
		geo += math.Log(o.tput / b.tput)
		n++
	}
	r.Metrics["family_throughput_geomean"] = math.Exp(geo / n)

	r.AddNote("paper: CoAtNet-H improves the Pareto front with 1.54× training throughput at neutral quality")
	r.AddNote("measured: C-H5 throughput ratio %.2f×, accuracy delta %+.2f pp; family geomean %.2f×",
		r.Metrics["h5_throughput_ratio"], r.Metrics["h5_accuracy_delta"], r.Metrics["family_throughput_geomean"])
	return r
}

// Table3Ablation regenerates Table 3: the architecture-change ladder from
// CoAtNet-5 to CoAtNet-H5 with its accuracy, parameter, FLOPs and
// throughput breakdowns.
func Table3Ablation() *Report {
	r := newReport("table3", "CoAtNet-5 → CoAtNet-H5 ablation (cf. Table 3)",
		"model", "top-1 (%)", "params (M)", "GFLOPs/img", "throughput (img/s/chip)")
	chip := hwsim.TPUv4()
	base := models.CoAtNet(5)

	ladder := []struct {
		name string
		mut  func(*models.CoAtNetSpec)
	}{
		{"CoAtNet-5", func(s *models.CoAtNetSpec) {}},
		{"+DeeperConv", func(s *models.CoAtNetSpec) { s.ConvDepths[1] += 4 }},
		{"+ResShrink", func(s *models.CoAtNetSpec) { s.ConvDepths[1] += 4; s.Resolution = 160 }},
		{"+SquaredReLU (CoAtNet-H5)", func(s *models.CoAtNetSpec) {
			s.ConvDepths[1] += 4
			s.Resolution = 160
			s.Act = "squared_relu"
		}},
	}
	var accs, tputs []float64
	for _, step := range ladder {
		spec := base
		step.mut(&spec)
		g := spec.Graph()
		acc := quality.Accuracy(spec.Traits(base), quality.JFT300M)
		tput := hwsim.TrainingThroughput(g, chip)
		accs = append(accs, acc)
		tputs = append(tputs, tput)
		r.AddRow(step.name,
			fmt.Sprintf("%.1f", acc),
			fmt.Sprintf("%.0f", g.Params/1e6),
			fmt.Sprintf("%.0f", g.TotalFLOPs()/float64(spec.Batch)/1e9),
			fmt.Sprintf("%.0f", tput))
	}
	r.Metrics["deeperconv_acc_delta"] = accs[1] - accs[0]
	r.Metrics["resshrink_acc_delta"] = accs[2] - accs[1]
	r.Metrics["srelu_acc_delta"] = accs[3] - accs[2]
	r.Metrics["final_acc_delta"] = accs[3] - accs[0]
	r.Metrics["final_throughput_ratio"] = tputs[3] / tputs[0]

	r.AddNote("paper ladder: 89.7 → 90.3 → 88.9 → 89.7 top-1; throughput 101 → 97 → 186 → 186 img/s/chip")
	r.AddNote("measured deltas: %+.2f / %+.2f / %+.2f pp, net %+.2f pp at %.2f× throughput",
		r.Metrics["deeperconv_acc_delta"], r.Metrics["resshrink_acc_delta"],
		r.Metrics["srelu_acc_delta"], r.Metrics["final_acc_delta"], r.Metrics["final_throughput_ratio"])
	return r
}

// Fig7HWAnalysis regenerates Figure 7: the hardware-counter comparison of
// CoAtNet-H5 against CoAtNet-5 on TPUv4, normalized to CoAtNet-5. Shapes:
// speedup ≈1.84×, total FLOPs 0.47×, memory bandwidth ≈1.2×, CMEM
// bandwidth ≈5.3×, HBM traffic ≈0.65×.
func Fig7HWAnalysis() *Report {
	r := newReport("fig7", "Hardware analysis: CoAtNet-H5 normalized to CoAtNet-5 (TPUv4)",
		"counter", "CoAtNet-5", "CoAtNet-H5", "ratio (C-H5/C5)")
	chip := hwsim.TPUv4()
	opts := hwsim.Options{Mode: hwsim.Training}
	g5, gh := models.CoAtNet(5).Graph(), models.CoAtNetH(5).Graph()
	r5 := hwsim.Simulate(g5, chip, opts)
	rh := hwsim.Simulate(gh, chip, opts)

	add := func(name string, a, b float64, format string) float64 {
		ratio := b / a
		r.AddRow(name, fmt.Sprintf(format, a), fmt.Sprintf(format, b), fmt.Sprintf("%.2f", ratio))
		return ratio
	}
	r.Metrics["speedup"] = 1 / add("step time (ms)", r5.StepTime*1e3, rh.StepTime*1e3, "%.1f")
	r.Metrics["flops_ratio"] = add("total PFLOPs/step", r5.FLOPs/1e15, rh.FLOPs/1e15, "%.2f")
	r.Metrics["rate_ratio"] = add("compute rate (TFLOPS)", r5.AchievedFLOPS()/1e12, rh.AchievedFLOPS()/1e12, "%.0f")
	r.Metrics["membw_ratio"] = add("total memory BW (GB/s)", r5.MemoryBandwidth()/1e9, rh.MemoryBandwidth()/1e9, "%.0f")
	r.Metrics["cmembw_ratio"] = add("CMEM BW (GB/s)", r5.CMEMBandwidthUsed()/1e9, rh.CMEMBandwidthUsed()/1e9, "%.0f")
	r.Metrics["hbm_ratio"] = add("HBM traffic (GB/step)", r5.HBMBytes/1e9, rh.HBMBytes/1e9, "%.1f")

	r.AddNote("paper: speedup 1.84×, FLOPs 0.47×, rate 0.86×, mem BW 1.2×, CMEM BW 5.3×, HBM traffic 0.65×")
	r.AddNote("measured: speedup %.2f×, FLOPs %.2f×, rate %.2f×, mem BW %.2f×, CMEM BW %.1f×, HBM %.2f×",
		r.Metrics["speedup"], r.Metrics["flops_ratio"], r.Metrics["rate_ratio"],
		r.Metrics["membw_ratio"], r.Metrics["cmembw_ratio"], r.Metrics["hbm_ratio"])
	return r
}

// Table4EfficientNetH regenerates Table 4: geometric-mean speedups of the
// EfficientNet-H family over EfficientNet-X for training on TPUv4 and
// serving on TPUv4i and V100, family-wide and for B5–B7.
func Table4EfficientNetH() *Report {
	r := newReport("table4", "EfficientNet-H geometric-mean speedups over EfficientNet-X",
		"workload", "family geomean", "B5–B7 geomean")

	speedups := func(eval func(x, h models.ENetSpec) float64) (fam, big float64) {
		var geo, geo57, n, n57 float64
		for i := 0; i <= 7; i++ {
			sp := eval(models.EfficientNetX(i), models.EfficientNetH(i))
			geo += math.Log(sp)
			n++
			if i >= 5 {
				geo57 += math.Log(sp)
				n57++
			}
		}
		return math.Exp(geo / n), math.Exp(geo57 / n57)
	}

	train := func(x, h models.ENetSpec) float64 {
		chip := hwsim.TPUv4()
		rx := hwsim.Simulate(x.Graph(), chip, hwsim.Options{Mode: hwsim.Training})
		rh := hwsim.Simulate(h.Graph(), chip, hwsim.Options{Mode: hwsim.Training})
		return rx.StepTime / rh.StepTime
	}
	serve := func(chip hwsim.Chip) func(x, h models.ENetSpec) float64 {
		return func(x, h models.ENetSpec) float64 {
			rx := hwsim.Simulate(x.ServingGraph(16), chip, hwsim.Options{})
			rh := hwsim.Simulate(h.ServingGraph(16), chip, hwsim.Options{})
			return rx.StepTime / rh.StepTime
		}
	}

	tf, tb := speedups(train)
	sf4i, sb4i := speedups(serve(hwsim.TPUv4i()))
	sfv, sbv := speedups(serve(hwsim.GPUV100()))
	r.AddRow("training on TPUv4", pct(tf), pct(tb))
	r.AddRow("serving on TPUv4i", pct(sf4i), pct(sb4i))
	r.AddRow("serving on GPUv100", pct(sfv), pct(sbv))

	r.Metrics["train_family"] = tf
	r.Metrics["train_b57"] = tb
	r.Metrics["serve_tpuv4i_family"] = sf4i
	r.Metrics["serve_tpuv4i_b57"] = sb4i
	r.Metrics["serve_v100_family"] = sfv
	r.Metrics["serve_v100_b57"] = sbv

	r.AddNote("paper: 5%% (14%%) training, 6%% (16%%) TPUv4i serving, 6%% (17%%) V100 serving")
	r.AddNote("measured: %s (%s) / %s (%s) / %s (%s); B0–B4 unchanged by construction",
		pct(tf), pct(tb), pct(sf4i), pct(sb4i), pct(sfv), pct(sbv))
	return r
}

// Fig9Energy regenerates Figure 9: performance, power and energy of the
// H₂O-NAS families normalized to their baselines. Shape: every family
// saves energy; CoAtNet-H and DLRM-H are faster *and* draw no more power
// (the counter-intuitive result the paper highlights), EfficientNet-H's
// energy gain tracks its speedup at equal power.
func Fig9Energy() *Report {
	r := newReport("fig9", "Performance / power / energy, normalized to baselines (TPUv4)",
		"family", "perf ratio", "power ratio", "energy ratio")
	chip := hwsim.TPUv4()
	opts := hwsim.Options{Mode: hwsim.Training}

	addFamily := func(name string, pairs [][2]hwsim.Result) {
		var perf, power, energy, n float64
		for _, p := range pairs {
			base, opt := p[0], p[1]
			perf += math.Log(base.StepTime / opt.StepTime)
			power += math.Log(opt.Power / base.Power)
			energy += math.Log(opt.Energy / base.Energy)
			n++
		}
		pr, pw, en := math.Exp(perf/n), math.Exp(power/n), math.Exp(energy/n)
		r.AddRow(name, fmt.Sprintf("%.2f", pr), fmt.Sprintf("%.2f", pw), fmt.Sprintf("%.2f", en))
		key := map[string]string{"EfficientNet-H": "enet", "CoAtNet-H": "cnet", "DLRM-H": "dlrm"}[name]
		r.Metrics[key+"_perf"] = pr
		r.Metrics[key+"_power"] = pw
		r.Metrics[key+"_energy"] = en
	}

	var enet [][2]hwsim.Result
	for i := 5; i <= 7; i++ { // the variants that changed
		enet = append(enet, [2]hwsim.Result{
			hwsim.Simulate(models.EfficientNetX(i).Graph(), chip, opts),
			hwsim.Simulate(models.EfficientNetH(i).Graph(), chip, opts),
		})
	}
	addFamily("EfficientNet-H", enet)

	var cnet [][2]hwsim.Result
	for i := 4; i <= 5; i++ { // the largest variants, as in Figure 7
		cnet = append(cnet, [2]hwsim.Result{
			hwsim.Simulate(models.CoAtNet(i).Graph(), chip, opts),
			hwsim.Simulate(models.CoAtNetH(i).Graph(), chip, opts),
		})
	}
	addFamily("CoAtNet-H", cnet)

	ds := spaceForDLRM(models.ProductionShapeDLRMConfig())
	addFamily("DLRM-H", [][2]hwsim.Result{{
		hwsim.Simulate(ds.Graph(models.BaselineDLRM(ds)), chip, opts),
		hwsim.Simulate(ds.Graph(models.DLRMH(ds)), chip, opts),
	}})

	r.AddNote("paper: CNet-H 1.54× perf at 0.85× power → 0.54× energy; DLRM-H 1.10× at 0.93× → 0.85×; ENet-H energy gain from speed at equal power")
	return r
}

func pct(speedup float64) string {
	return fmt.Sprintf("%+.0f%%", (speedup-1)*100)
}
