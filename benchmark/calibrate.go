package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
)

// quartiles returns the first and third quartile of values as Python's
// statistics.quantiles(values, n=4) does (the exclusive method), which
// is what the benchmark's acceptance rule is stated in.
func quartiles(values []float64) (q1, q3 float64) {
	data := append([]float64(nil), values...)
	sort.Float64s(data)
	ld := len(data)
	if ld < 2 {
		return data[0], data[0]
	}
	at := func(i int) float64 {
		m := ld + 1
		j := min(max(i*m/4, 1), ld-1)
		delta := float64(i*m - j*4)
		return (data[j-1]*(4-delta) + data[j]*delta) / 4
	}
	return at(1), at(3)
}

// runCalibrate makes n full runs back to back, each a fresh process per
// workload with its own seed exactly as the driver starts them, and
// prints for every workload and end-to-end metric the median, the
// quartiles, the interquartile spread and the range, each as a share of
// the median, beside the metric's bound.
func runCalibrate(n int, dir string, seed int64, seconds int) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	samples := map[string]map[string][]float64{}
	for i := 0; i < n; i++ {
		for _, w := range workloadSpecs {
			cmd := exec.Command(exe, "--dir", dir, "--workload", w.Name, "--seed", strconv.FormatInt(seed+int64(i), 10),
				"--seconds", strconv.Itoa(seconds), "--trace", "0")
			cmd.Stderr = os.Stderr
			out, err := cmd.Output()
			if err != nil {
				return fmt.Errorf("run %d of %s: %w", i+1, w.Name, err)
			}
			lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
			var res result
			if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
				return fmt.Errorf("run %d of %s: %w", i+1, w.Name, err)
			}
			if !res.Correct {
				return fmt.Errorf("run %d of %s: %d of %d ops failed", i+1, w.Name, res.Failed, res.Attempted)
			}
			if samples[w.Name] == nil {
				samples[w.Name] = map[string][]float64{}
			}
			for k, v := range res.Metrics {
				samples[w.Name][k] = append(samples[w.Name][k], v.Value)
			}
			fmt.Fprintf(os.Stderr, "calibrate: run %d/%d %s:", i+1, n, w.Name)
			for _, m := range endToEnd {
				fmt.Fprintf(os.Stderr, " %s=%.5g", m.Name, res.Metrics[m.Name].Value)
			}
			fmt.Fprintln(os.Stderr)
		}
	}
	fmt.Printf("| workload | metric | median | q1 | q3 | iqr/median | range/median | bound |\n|---|---|---|---|---|---|---|---|\n")
	for _, w := range workloadSpecs {
		for _, m := range endToEnd {
			v := samples[w.Name][m.Name]
			med := median(v)
			q1, q3 := quartiles(v)
			s := append([]float64(nil), v...)
			sort.Float64s(s)
			fmt.Printf("| %s | %s | %.5g %s | %.5g | %.5g | %.2f%% | %.2f%% | %.0f%% |\n", w.Name, m.Name, med, m.Unit,
				q1, q3, 100*(q3-q1)/med, 100*(s[len(s)-1]-s[0])/med, 100**m.Bound)
		}
	}
	return nil
}
