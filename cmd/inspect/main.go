// Command inspect prints a model-zoo architecture's hardware profile: the
// operator breakdown by execution unit, roofline placement, memory
// footprint, and simulated training/serving behaviour on each chip.
//
// Usage:
//
//	inspect -model coatnet-5
//	inspect -model efficientnet-b7 -chip tpuv4i -trace
//	inspect -model dlrm
//	inspect -list
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"text/tabwriter"

	"h2onas/internal/arch"
	"h2onas/internal/hwsim"
	"h2onas/internal/models"
)

func main() {
	model := flag.String("model", "coatnet-5", "model to inspect (see -list)")
	chipName := flag.String("chip", "tpuv4", "chip: tpuv4, tpuv4i, v100")
	chipFile := flag.String("chip-file", "", "load a custom chip configuration (JSON) instead of -chip")
	trace := flag.Bool("trace", false, "print the slowest ops")
	dot := flag.String("dot", "", "also write the op graph in Graphviz DOT format to this file")
	list := flag.Bool("list", false, "list available models and exit")
	flag.Parse()

	if *list {
		for _, line := range models.Names() {
			fmt.Println(line)
		}
		return
	}
	chip, err := hwsim.ResolveChip(*chipName, *chipFile)
	if err != nil {
		fatalf("%v", err)
	}
	build, err := models.Lookup(*model)
	if err != nil {
		fatalf("%v", err)
	}
	g := build(0) // the zoo's reference shape, not a serving batch
	inspect(g, chip, *trace)
	if *dot != "" {
		f, err := os.Create(*dot)
		if err != nil {
			fatalf("%v", err)
		}
		defer f.Close()
		if err := g.WriteDot(f); err != nil {
			fatalf("%v", err)
		}
		fmt.Printf("\nwrote %s (render with: dot -Tsvg %s > model.svg)\n", *dot, *dot)
	}
}

func inspect(g *arch.Graph, chip hwsim.Chip, trace bool) {
	fmt.Printf("%s — %d ops, batch %d, %.1fM params, %.1f GFLOPs/example\n\n",
		g.Name, len(g.Ops), g.Batch, g.Params/1e6, g.TotalFLOPs()/float64(g.Batch)/1e9)

	// Compute breakdown by unit and by kind.
	total := g.TotalFLOPs()
	fmt.Println("compute by unit:")
	for _, u := range []arch.Unit{arch.MXU, arch.VPU, arch.MemoryUnit, arch.NetworkUnit} {
		f := g.UnitFLOPs(u)
		if f == 0 && u != arch.NetworkUnit {
			continue
		}
		fmt.Printf("  %-8s %6.1f GFLOPs (%5.1f%%)\n", u, f/1e9, f/total*100)
	}
	byKind := map[arch.Kind]float64{}
	for i := range g.Ops {
		byKind[g.Ops[i].Kind] += g.Ops[i].TotalFLOPs()
	}
	type kindShare struct {
		kind arch.Kind
		f    float64
	}
	var kinds []kindShare
	for k, f := range byKind {
		kinds = append(kinds, kindShare{k, f})
	}
	sort.Slice(kinds, func(i, j int) bool { return kinds[i].f > kinds[j].f })
	fmt.Println("\ncompute by op kind:")
	for _, k := range kinds {
		if k.f == 0 {
			continue
		}
		fmt.Printf("  %-16s %8.1f GFLOPs (%5.1f%%)\n", k.kind, k.f/1e9, k.f/total*100)
	}

	// Roofline and simulation.
	point := hwsim.Roofline(g, chip)
	fmt.Printf("\nroofline on %s: OI %.1f FLOPs/B, achieved %.0f GFLOPS, %s-bound (ridge at OI %.0f)\n",
		chip.Name, point.OperationalIntensity, point.AchievedFLOPS/1e9, point.Bound, hwsim.RidgePoint(chip))

	for _, mode := range []hwsim.Mode{hwsim.Inference, hwsim.Training} {
		name := [...]string{hwsim.Inference: "inference", hwsim.Training: "training "}[mode]
		opts := hwsim.Options{Mode: mode}
		r := hwsim.Simulate(g, chip, opts)
		fits, fp := hwsim.FitsMemory(g, chip, opts)
		fitStr := "fits"
		if !fits {
			fitStr = "EXCEEDS HBM"
		}
		fmt.Printf("%s: %8.2f ms/step, %6.0f ex/s, %3.0f W, %6.1f J/step | mem %5.1f GB (%s)\n",
			name, r.StepTime*1e3, float64(g.Batch)/r.StepTime, r.Power, r.Energy, fp.Total/1e9, fitStr)
	}

	if trace {
		r := hwsim.Simulate(g, chip, hwsim.Options{Mode: hwsim.Inference, Trace: true})
		sort.Slice(r.PerOp, func(i, j int) bool { return r.PerOp[i].Time > r.PerOp[j].Time })
		fmt.Println("\nslowest ops (inference):")
		tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "  op\tkind\ttime (µs)\tcompute (µs)\tmemory (µs)")
		for i, op := range r.PerOp {
			if i >= 12 {
				break
			}
			fmt.Fprintf(tw, "  %s\t%s\t%.1f\t%.1f\t%.1f\n",
				op.Name, op.Kind, op.Time*1e6, op.ComputeTime*1e6, op.MemoryTime*1e6)
		}
		tw.Flush()
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(1)
}
