package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"sort"
	"strings"
)

// runSteady runs a workload n times, with seeds 1..n, each in a child
// process of this binary, and prints each metric's median, quartiles,
// interquartile spread and (max−min)/median — the figures the bounds in
// BENCHMARK.json are set from. name "all" runs every workload.
func runSteady(name string, n int, seconds float64, trace int) error {
	names := []string{name}
	if name == "all" {
		names = workloadNames
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	for _, wl := range names {
		if _, ok := workloads[wl]; !ok {
			return fmt.Errorf("unknown workload %q", wl)
		}
		values := map[string][]float64{}
		units := map[string]string{}
		var shares []float64
		for seed := 1; seed <= n; seed++ {
			var out bytes.Buffer
			cmd := exec.Command(self, "--workload", wl, "--seed", fmt.Sprint(seed),
				"--seconds", fmt.Sprint(seconds), "--trace", fmt.Sprint(trace))
			cmd.Stdout = &out
			cmd.Stderr = os.Stderr
			if err := cmd.Run(); err != nil {
				return fmt.Errorf("%s seed %d: %w", wl, seed, err)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				return fmt.Errorf("%s seed %d: %w", wl, seed, err)
			}
			if !res.Correct {
				return fmt.Errorf("%s seed %d: output checks failed", wl, seed)
			}
			shares = append(shares, float64(res.Failed)/float64(res.Attempted))
			for k, m := range res.Metrics {
				values[k] = append(values[k], m.Value)
				units[k] = m.Unit
			}
			fmt.Fprintf(os.Stderr, "%s seed %d done\n", wl, seed)
		}
		fmt.Printf("%s: %d runs, failed share %v\n", wl, n, shares)
		fmt.Printf("  %-24s %12s %12s %12s %8s %8s\n", "metric", "q1", "median", "q3", "iqr/med", "rng/med")
		keys := make([]string, 0, len(values))
		for k := range values {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			s := spread(values[k])
			fmt.Printf("  %-24s %12.4f %12.4f %12.4f %8.4f %8.4f %s\n", k, s.q1, s.med, s.q3, s.iqr, s.rng, units[k])
			fmt.Printf("    runs: %.4g\n", values[k])
		}
	}
	return nil
}

type spreadStats struct{ q1, med, q3, iqr, rng float64 }

// spread summarizes repeated values: quartiles as Python's
// statistics.quantiles(values, n=4) gives them (the exclusive method),
// their distance as a share of the median, and (max−min)/median.
func spread(xs []float64) spreadStats {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q := quartiles(s)
	med := median(s)
	st := spreadStats{q1: q[0], med: med, q3: q[2]}
	if med != 0 {
		st.iqr = math.Abs(q[2]-q[0]) / math.Abs(med)
		st.rng = (s[len(s)-1] - s[0]) / math.Abs(med)
	}
	return st
}

func quartiles(sorted []float64) [3]float64 {
	var out [3]float64
	n := len(sorted)
	if n < 2 {
		for i := range out {
			if n == 1 {
				out[i] = sorted[0]
			}
		}
		return out
	}
	m := n + 1
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		out[i-1] = (sorted[j-1]*float64(4-delta) + sorted[j]*float64(delta)) / 4
	}
	return out
}
