// Command pbbench regenerates the paper's evaluation tables and figures
// (§5) as plain-text series.
//
// Usage:
//
//	pbbench -exp fig11|fig12|fig14|fig15|fig16|table1|table2|cutoff|all [-quick]
//
// -quick shrinks every experiment to seconds-scale sizes; without it the
// defaults approximate the paper's ranges at laptop scale. The repo's
// gated performance benchmark is benchmark/run.sh, not this tool.
package main

import (
	"flag"
	"fmt"
	"os"

	"petabricks/internal/harness"
)

func main() {
	var (
		exp   = flag.String("exp", "all", "experiment id (fig11, fig12, fig14, fig15, fig16, table1, table2, cutoff, all)")
		quick = flag.Bool("quick", false, "shrink sizes for a fast smoke run")
	)
	flag.Parse()

	run := func(id string) {
		switch id {
		case "fig11":
			p := harness.DefaultPoissonParams()
			if *quick {
				p.MaxLevel = 5
			}
			emit(harness.Fig11(p))
		case "fig12":
			p := harness.DefaultEigenParams()
			if *quick {
				p.Sizes = []int{64, 128, 256}
				p.TuneMax = 128
			}
			emit(harness.Fig12(p))
		case "fig14":
			p := harness.DefaultSortParams()
			if *quick {
				p.Sizes = []int{250, 1000}
				p.TuneMax = 1024
			}
			emit(harness.Fig14(p))
		case "fig15":
			p := harness.DefaultMatMulParams()
			if *quick {
				p.Sizes = []int{64, 128}
				p.TuneMax = 64
			}
			emit(harness.Fig15(p))
		case "fig16":
			p := harness.DefaultScalabilityParams()
			if *quick {
				p.SortN = 100000
				p.MatMulN = 128
				p.MaxWorkers = 4
			}
			emit(harness.Fig16(p))
		case "table1", "table2":
			res, err := harness.RunArchTables(100000, 100000)
			if err != nil {
				fatal(err)
			}
			if id == "table1" {
				fmt.Println(res.Table1())
				if err := res.CheckTable1Shape(); err != nil {
					fmt.Println("# shape WARNING:", err)
				} else {
					fmt.Println("# shape OK: no cross-trained config beats native")
				}
			} else {
				fmt.Println(res.Table2())
			}
		case "cutoff":
			p := harness.DefaultCutoffParams()
			if *quick {
				p.N = 50000
				p.Trials = 1
			}
			emit(harness.STLCutoff(p))
		default:
			fatal(fmt.Errorf("unknown experiment %q", id))
		}
	}
	if *exp == "all" {
		for _, id := range []string{"fig11", "fig12", "fig14", "fig15", "fig16", "table1", "table2", "cutoff"} {
			run(id)
			fmt.Println()
		}
	} else {
		run(*exp)
	}
}

func emit(e harness.Experiment, err error) {
	if err != nil {
		fatal(err)
	}
	fmt.Println(e.Render())
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "pbbench:", err)
	os.Exit(1)
}
