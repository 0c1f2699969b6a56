package main

import (
	"fmt"
	"math"
	"os"
	goruntime "runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// This file is the measurement loop: closed-loop clients driving one
// workload instance for a round, host steal read around the round, and
// the aggregation of rounds into a run's values.

// roundLength is one second: long enough to hold >= 100 ops of every
// workload, short enough that a steal burst dirties one round and not
// the run. Only the smoke tests shorten it.
var roundLength = time.Second

// maxStealPct is the host steal above which a round is not counted.
const maxStealPct = 2.0

// procStat is where host CPU accounting is read; tests point it at a
// fake file.
var procStat = "/proc/stat"

// cpuTicks reads the aggregate "cpu" line of a /proc/stat-format file:
// ticks stolen by the hypervisor and ticks in total. A host without the
// file or without a steal column reports no steal.
func cpuTicks(path string) (steal, total uint64) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	// user nice system idle iowait irq softirq steal; guest time is
	// already counted inside user, so later columns are left out.
	for i, s := range f[1:9] {
		v, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			return 0, 0
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

func stealPct(steal0, total0, steal1, total1 uint64) float64 {
	if total1 <= total0 || steal1 < steal0 {
		return 0
	}
	return 100 * float64(steal1-steal0) / float64(total1-total0)
}

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// percentile returns the q-quantile (0..1) of an ascending slice by
// linear interpolation between the two closest ranks.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (pos-float64(lo))*(sorted[hi]-sorted[lo])
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return percentile(s, 0.5)
}

// client is one closed-loop caller. An instance's op and verify read
// and write only their own client, so clients never share state.
type client struct {
	id  int
	n   int64 // ops started by this client since the instance was set up
	rec *recorder
	// scratch is the op's result, kept for verify.
	scratch any
}

// instance is one set-up workload, ready to be driven.
type instance struct {
	clients []*client
	// op performs one operation for c, timed by the caller.
	op func(c *client) error
	// verify checks the outputs op left in c.scratch; it is not timed.
	// It decides itself which ops to sample.
	verify func(c *client) bool
	// counters reports the cumulative counters of the layers under the
	// workload (tasks, steals, and with a tracer parks, wakes and cache
	// hits); the traced pass takes their difference over its rounds.
	counters func() map[string]float64
	close    func()
}

// round is what one measured second produced.
type round struct {
	ops       int
	failed    int
	cpu       float64 // seconds
	allocB    uint64
	mallocs   uint64
	gcCycles  uint32
	stealPct  float64
	p50, p90  float64
	perSecond float64
}

func (r round) p50ms() float64 { return r.p50 }

// runRound drives every client of inst for roundLength, then reads the
// host.
func runRound(inst *instance) round {
	var ms0, ms1 goruntime.MemStats
	goruntime.ReadMemStats(&ms0)
	steal0, total0 := cpuTicks(procStat)
	cpu0 := cpuSeconds()
	start := time.Now()
	deadline := start.Add(roundLength)

	lats := make([][]float64, len(inst.clients))
	fails := make([]int, len(inst.clients))
	var wg sync.WaitGroup
	for i, c := range inst.clients {
		wg.Add(1)
		go func(i int, c *client) {
			defer wg.Done()
			buf := make([]float64, 0, 4096)
			for {
				t0 := time.Now()
				if !t0.Before(deadline) {
					break
				}
				sp := c.rec.begin("op", "op")
				err := inst.op(c)
				c.rec.end(sp)
				buf = append(buf, float64(time.Since(t0))/1e6)
				if err != nil || !inst.verify(c) {
					fails[i]++
					if err != nil && fails[i] == 1 {
						fmt.Fprintf(os.Stderr, "benchmark: op failed: %v\n", err)
					}
				}
				c.n++
			}
			lats[i] = buf
		}(i, c)
	}
	wg.Wait()

	wall := time.Since(start).Seconds()
	r := round{cpu: cpuSeconds() - cpu0}
	steal1, total1 := cpuTicks(procStat)
	goruntime.ReadMemStats(&ms1)
	r.stealPct = stealPct(steal0, total0, steal1, total1)
	r.allocB = ms1.TotalAlloc - ms0.TotalAlloc
	r.mallocs = ms1.Mallocs - ms0.Mallocs
	r.gcCycles = ms1.NumGC - ms0.NumGC
	var lat []float64 // op latency in ms, every client's
	for i := range lats {
		lat = append(lat, lats[i]...)
		r.failed += fails[i]
	}
	sort.Float64s(lat)
	r.ops = len(lat)
	r.p50, r.p90 = percentile(lat, 0.5), percentile(lat, 0.9)
	r.perSecond = float64(r.ops) / wall
	return r
}

// measure makes rounds until `rounds` of them saw at most maxStealPct
// of host steal, at most maxExtra more than that, and returns the
// `rounds` cleanest (the earliest among equals). Every round made,
// counted or not, is in all.
func measure(next func() round, rounds, maxExtra int) (kept, all []round) {
	for clean := 0; clean < rounds && len(all) < rounds+maxExtra; {
		r := next()
		all = append(all, r)
		if r.stealPct <= maxStealPct {
			clean++
		}
	}
	// Clean rounds rank equal and keep their order; dirty ones follow,
	// least stolen first.
	rank := func(r round) float64 {
		if r.stealPct <= maxStealPct {
			return 0
		}
		return r.stealPct
	}
	kept = append(kept, all...)
	sort.SliceStable(kept, func(i, j int) bool { return rank(kept[i]) < rank(kept[j]) })
	return kept[:rounds], all
}

// extraRounds caps the re-runs so that a run on a stormy host still
// ends in bounded time.
func extraRounds(rounds int) int { return (rounds*2 + 2) / 3 }

// stat collects one per-round statistic.
func stat(rs []round, f func(round) float64) []float64 {
	v := make([]float64, len(rs))
	for i, r := range rs {
		v[i] = f(r)
	}
	return v
}
