// Command pbfuzz is the generative differential fuzzer for the whole
// compile/execute pipeline: it generates random well-formed PetaBricks
// programs (internal/pbc/gen) and runs each one through the oracle
// matrix (internal/pbc/difftest) — both execution tiers (the AST
// interpreter, and the default one: the flat-bytecode vm), sequential
// vs work-stealing pool, several configurations including
// extreme cutoffs, repeated runs — demanding bit-identical outputs.
// Divergences are minimized and written as replayable JSON reproducers
// under testdata/fuzz/pbdiff.
//
// Usage:
//
//	pbfuzz -n 200 -seed 1            # fuzz 200 programs
//	pbfuzz -replay testdata/fuzz/pbdiff        # replay a corpus dir
//	pbfuzz -replay testdata/fuzz/pbdiff/x.json # replay one reproducer
//	pbfuzz -n 20 -inject             # demo: injected interpreter bug
//
// Exit status is nonzero when any divergence (or generator self-check
// failure) is found.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"petabricks/internal/pbc/difftest"
	"petabricks/internal/pbc/gen"
)

func main() {
	var (
		n       = flag.Int("n", 200, "number of generated programs")
		seed    = flag.Int64("seed", 1, "generator and oracle seed")
		workers = flag.Int("workers", 4, "pool size for parallel axes")
		configs = flag.Int("configs", 2, "random configs per case (beyond default+extreme)")
		repeats = flag.Int("repeats", 2, "runs per axis")
		maxN    = flag.Int("maxn", 14, "largest problem size")
		out     = flag.String("out", filepath.Join("testdata", "fuzz", "pbdiff"), "directory for minimized reproducers")
		inject  = flag.Bool("inject", false, "inject a deliberate interpreter bug (oracle self-test)")
		replay  = flag.String("replay", "", "replay a reproducer file or directory instead of fuzzing")
		verbose = flag.Bool("v", false, "log every case")
	)
	flag.Parse()

	opts := difftest.Options{
		Workers: *workers,
		Configs: *configs,
		Repeats: *repeats,
		Seed:    *seed,
		MaxN:    *maxN,
	}
	if *inject {
		opts.Fault = difftest.FaultInterp
	}
	h := difftest.New(opts)
	defer h.Close()

	if *replay != "" {
		os.Exit(runReplay(h, *replay))
	}
	os.Exit(runFuzz(h, *n, *seed, *out, *verbose))
}

func runReplay(h *difftest.Harness, path string) int {
	info, err := os.Stat(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pbfuzz:", err)
		return 2
	}
	bad := 0
	if info.IsDir() {
		divs, paths, err := h.ReplayDir(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, "pbfuzz:", err)
			return 2
		}
		for file, d := range divs {
			fmt.Printf("DIVERGENCE %s: %s\n", file, d)
			bad++
		}
		fmt.Printf("replayed %d reproducers, %d divergences\n", len(paths), bad)
	} else {
		r, err := difftest.LoadRepro(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, "pbfuzz:", err)
			return 2
		}
		d, err := h.Replay(r)
		if err != nil {
			fmt.Fprintln(os.Stderr, "pbfuzz:", err)
			return 2
		}
		if d != nil {
			fmt.Printf("DIVERGENCE %s\n", d)
			bad++
		} else {
			fmt.Printf("replayed %s: clean\n", r.Case)
		}
	}
	if bad > 0 {
		return 1
	}
	return 0
}

func runFuzz(h *difftest.Harness, n int, seed int64, out string, verbose bool) int {
	g := gen.New(seed)
	var (
		cases, invalid, runs, divergences, genFailures int
		families                                       = map[string]int{}
	)
	for i := 0; i < n; i++ {
		c, err := g.Next()
		if err != nil {
			fmt.Fprintf(os.Stderr, "pbfuzz: generator self-check failure: %v\n", err)
			genFailures++
			continue
		}
		cases++
		families[c.Family]++
		if c.WantErr {
			invalid++
		}
		res, err := h.Check(c)
		if err != nil {
			fmt.Fprintf(os.Stderr, "pbfuzz: %s: %v\n", c.Name, err)
			genFailures++
			continue
		}
		runs += res.Runs
		if verbose {
			fmt.Printf("%-16s %3d runs  %d divergences\n", c.Name, res.Runs, len(res.Divergences))
		}
		if len(res.Divergences) == 0 {
			continue
		}
		divergences += len(res.Divergences)
		// Minimize and persist the first divergence of the case; the
		// rest are almost always the same bug seen from another axis.
		d := res.Divergences[0]
		fmt.Printf("DIVERGENCE %s\n", d)
		repro, err := h.Minimize(c, d)
		if err != nil {
			fmt.Fprintf(os.Stderr, "pbfuzz: minimizing %s: %v\n", c.Name, err)
			continue
		}
		path := filepath.Join(out, fmt.Sprintf("s%d-%s.json", seed, c.Name))
		if err := difftest.WriteRepro(path, repro); err != nil {
			fmt.Fprintf(os.Stderr, "pbfuzz: writing %s: %v\n", path, err)
			continue
		}
		fmt.Printf("  minimized to n=%d, wrote %s\n", repro.N, path)
	}
	var fam []string
	for f, k := range families {
		fam = append(fam, fmt.Sprintf("%s:%d", f, k))
	}
	fmt.Printf("pbfuzz: %d programs (%d invalid-by-design), %d oracle runs, %d divergences, %d generator failures\n",
		cases, invalid, runs, divergences, genFailures)
	fmt.Printf("pbfuzz: families %s\n", strings.Join(fam, " "))
	if divergences > 0 || genFailures > 0 {
		return 1
	}
	return 0
}
