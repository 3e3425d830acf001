// Command experiments regenerates every table and figure of the
// paper's evaluation (§5) as text tables.
//
// Usage:
//
//	experiments table1|table2|fig3|fig4|fig5|fig6|fig7|fig8|summary|all
//	    [-scale 1.0] [-seed 1] [-datasets POLE,MB6,...]
//
// Absolute times depend on the machine and the synthetic-dataset
// scale; the experiment *shapes* (method ordering, degradation under
// noise, incremental flatness) are what reproduce the paper. The
// README's "Command-line tools" section shows how to run it.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"github.com/pghive/pghive/internal/experiments"
)

func main() {
	var (
		scale    = flag.Float64("scale", 1, "dataset scale factor (1 = defaults ≈ Table 2 ÷ 200)")
		seed     = flag.Int64("seed", 1, "random seed")
		datasets = flag.String("datasets", "", "comma-separated dataset subset (default: all eight)")
	)
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: experiments [flags] table1|table2|fig3|fig4|fig5|fig6|fig7|fig8|summary|all\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 1 {
		flag.Usage()
		os.Exit(2)
	}
	cfg := experiments.Config{Scale: *scale, Seed: *seed}
	if *datasets != "" {
		cfg.Datasets = strings.Split(*datasets, ",")
	}

	what := strings.ToLower(flag.Arg(0))
	out := os.Stdout

	needGrid := map[string]bool{"fig3": true, "fig4": true, "fig5": true, "summary": true, "all": true}
	var cells []experiments.Cell
	if needGrid[what] {
		fmt.Fprintln(os.Stderr, "running the full method x dataset x noise x availability grid ...")
		cells = experiments.Grid(cfg)
	}

	run := func(name string) {
		switch name {
		case "table1":
			experiments.PrintTable1(out, experiments.Table1(cfg))
		case "table2":
			experiments.PrintTable2(out, experiments.Table2(cfg))
		case "fig3":
			experiments.PrintFig3(out, experiments.Fig3(cells))
		case "fig4":
			experiments.PrintFig4(out, cells)
		case "fig5":
			experiments.PrintFig5(out, cells)
		case "fig6":
			experiments.PrintFig6(out, experiments.Fig6(cfg))
		case "fig7":
			experiments.PrintFig7(out, experiments.Fig7(cfg))
		case "fig8":
			experiments.PrintFig8(out, experiments.Fig8(cfg))
		case "summary":
			experiments.PrintSummary(out, experiments.Summarize(cells))
		default:
			fmt.Fprintf(os.Stderr, "experiments: unknown target %q\n", name)
			os.Exit(2)
		}
		fmt.Fprintln(out)
	}
	if what == "all" {
		for _, name := range []string{"table1", "table2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "summary"} {
			run(name)
		}
		return
	}
	run(what)
}
