// Command pbrun executes a benchmark kernel or a transform of a
// PetaBricks source file under a given configuration file and reports
// the best wall time. Both resolve through the internal/bench
// descriptors shared with pbserve and pbtune; a transform also prints
// each output's shape and checksum.
//
// Usage:
//
//	pbrun -bench sort|matmul|eigen|poisson -config file -n size [flags]
//	pbrun -src file.pbcc [-transform Name] -n size [-config file] [flags]
//
//	-transform t transform to run (default the file's first servable one)
//	-workers n   worker threads (default all CPUs)
//	-trials k    best-of-k timing (default 3)
//	-acc i       poisson: accuracy index into the tuned family
package main

import (
	"flag"
	"fmt"
	"maps"
	"os"
	"slices"
	"strings"

	"petabricks/internal/bench"
	"petabricks/internal/choice"
	"petabricks/internal/matrix"
	"petabricks/internal/runtime"
)

func main() {
	var (
		benchName = flag.String("bench", "", "benchmark: "+strings.Join(bench.Names(), ", "))
		src       = flag.String("src", "", "PetaBricks source file to interpret")
		transform = flag.String("transform", "", "transform to run with -src (default: the first servable one)")
		cfgPath   = flag.String("config", "", "configuration file")
		n         = flag.Int("n", 100000, "input size")
		workers   = flag.Int("workers", 0, "worker threads")
		trials    = flag.Int("trials", 3, "best-of-k timing")
		accIdx    = flag.Int("acc", -1, "poisson accuracy index (default: highest)")
		seed      = flag.Int64("seed", 1, "input generator seed")
	)
	flag.Parse()
	if *benchName == "" && *src == "" {
		fmt.Fprintln(os.Stderr, "pbrun: pick one of -bench or -src")
		flag.Usage()
		os.Exit(2)
	}
	if *benchName != "" && *src != "" {
		fmt.Fprintln(os.Stderr, "pbrun: -bench and -src are mutually exclusive")
		os.Exit(2)
	}
	cfg := choice.NewConfig()
	if *cfgPath != "" {
		var err error
		cfg, err = choice.Load(*cfgPath)
		if err != nil {
			fatal(err)
		}
	}
	var b *bench.Benchmark
	if *src != "" {
		var err error
		if b, err = bench.LoadDSLTransform(*src, *transform); err != nil {
			fatal(err)
		}
	} else {
		var ok bool
		if b, ok = bench.Lookup(*benchName); !ok {
			fatal(fmt.Errorf("unknown benchmark %q (have: %s)", *benchName, strings.Join(bench.Names(), ", ")))
		}
	}
	pool := runtime.NewPool(*workers)
	defer pool.Shutdown()
	if *trials < 1 {
		*trials = 1
	}
	best := 0.0
	var last bench.Result
	for t := 0; t < *trials; t++ {
		res, err := b.Run(pool, cfg, *n, *seed+int64(t), bench.RunOpts{AccIndex: *accIdx})
		if err != nil {
			fatal(err)
		}
		if t == 0 || res.Seconds < best {
			best = res.Seconds
		}
		last = res
	}
	if outs, ok := last.Out.(map[string]*matrix.Matrix); ok {
		for _, name := range slices.Sorted(maps.Keys(outs)) {
			sum := 0.0
			outs[name].Walk(func(_ []int, v float64) { sum += v })
			fmt.Printf("%s: shape %v checksum %.6g\n", name, outs[name].Shape(), sum)
		}
	}
	if last.Detail != "" {
		fmt.Println(last.Detail)
	}
	fmt.Printf("%s n=%d workers=%d: %.6fs (best of %d)\n",
		b.Name, *n, pool.NumWorkers(), best, *trials)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "pbrun:", err)
	os.Exit(1)
}
