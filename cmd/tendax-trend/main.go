// Command tendax-trend is the CI perf-trajectory gate: it compares the
// machine-readable metric reports written by `tendax-bench -json` against
// the committed baseline (bench/baseline.json) and fails when any metric
// regresses by more than the tolerance in its "better" direction.
// Improvements never fail the gate. A metric measured but missing from the
// baseline is reported and does not gate (new experiments land before
// their baseline); a baseline metric that was not measured fails the gate,
// so a metric cannot silently drop out of the report.
//
// Usage:
//
//	tendax-trend -baseline bench/baseline.json [-tolerance 0.30] BENCH_E11.json [BENCH_E12.json ...]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"

	"tendax/internal/experiments"
)

func readReports(path string) ([]experiments.Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rs []experiments.Report
	if err := json.Unmarshal(data, &rs); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return rs, nil
}

func main() {
	baselinePath := flag.String("baseline", "bench/baseline.json", "committed baseline metrics")
	tolerance := flag.Float64("tolerance", 0.30, "allowed fractional regression before the gate fails")
	flag.Parse()
	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "usage: tendax-trend -baseline base.json current.json [more.json ...]")
		os.Exit(2)
	}

	base, err := readReports(*baselinePath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tendax-trend: %v\n", err)
		os.Exit(2)
	}
	baseline := make(map[string]experiments.Metric) // "exp/name" -> metric
	for _, r := range base {
		for name, m := range r.Metrics {
			baseline[r.Experiment+"/"+name] = m
		}
	}

	seen := make(map[string]bool)
	failures := 0
	fmt.Printf("%-34s %14s %14s %10s  %s\n", "metric", "baseline", "current", "change", "verdict")
	for _, path := range flag.Args() {
		cur, err := readReports(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "tendax-trend: %v\n", err)
			os.Exit(2)
		}
		for _, r := range cur {
			for name, m := range r.Metrics {
				key := r.Experiment + "/" + name
				seen[key] = true
				b, ok := baseline[key]
				if !ok {
					fmt.Printf("%-34s %14s %14.3g %10s  %s\n", key, "-", m.Value, "-", "NEW (not gating)")
					continue
				}
				change := 0.0
				if b.Value != 0 {
					change = (m.Value - b.Value) / b.Value
				}
				regressed := false
				switch m.Better {
				case "lower":
					regressed = m.Value > b.Value*(1+*tolerance)
				default: // "higher"
					regressed = m.Value < b.Value*(1-*tolerance)
				}
				verdict := "ok"
				if regressed {
					verdict = "REGRESSION"
					failures++
				}
				fmt.Printf("%-34s %14.3g %14.3g %+9.1f%%  %s\n", key, b.Value, m.Value, change*100, verdict)
			}
		}
	}
	var missing []string
	for key := range baseline {
		if !seen[key] {
			missing = append(missing, key)
		}
	}
	sort.Strings(missing)
	for _, key := range missing {
		fmt.Printf("%-34s  MISSING (baseline metric not measured this run)\n", key)
	}
	if failures > 0 || len(missing) > 0 {
		fmt.Fprintf(os.Stderr, "tendax-trend: %d metric(s) regressed beyond %.0f%%, %d baseline metric(s) not measured\n",
			failures, *tolerance*100, len(missing))
		os.Exit(1)
	}
	fmt.Println("tendax-trend: perf trajectory within tolerance")
}
