// Command tendax-bench runs the TeNDaX reproduction experiments E1–E19
// (internal/experiments; see DESIGN.md and EXPERIMENTS.md) and prints one
// table per experiment. E6 additionally writes lineage.dot (Figure 1), E7
// prints the document-space scatter (Figure 2), and -json writes the key
// metrics of the experiments that ran as a machine-readable report for the
// CI regression gate (cmd/tendax-trend).
//
// Usage:
//
//	tendax-bench [-exp all|e1|e2|...|e19] [-quick] [-out lineage.dot] [-json report.json]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"tendax/internal/experiments"
)

func main() {
	exp := flag.String("exp", "all", "experiment to run (e1..e19 or all)")
	quick := flag.Bool("quick", false, "smaller parameters for a fast smoke run")
	out := flag.String("out", "lineage.dot", "output path for the E6 lineage DOT file")
	jsonOut := flag.String("json", "", "write machine-readable metrics of the experiments run to this file")
	flag.Parse()

	var reports []experiments.Report
	for _, e := range experiments.All {
		if *exp != "all" && !strings.EqualFold(*exp, e.ID) {
			continue
		}
		fmt.Printf("\n=== %s: %s ===\n", strings.ToUpper(e.ID), e.Name)
		rep, err := e.Run(experiments.Config{Quick: *quick, Out: *out, W: os.Stdout})
		if err != nil {
			log.Fatalf("%s: %v", e.ID, err)
		}
		reports = append(reports, rep)
	}
	if len(reports) == 0 {
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *exp)
		os.Exit(2)
	}
	if *jsonOut != "" {
		data, err := json.MarshalIndent(reports, "", "  ")
		if err != nil {
			log.Fatalf("marshal metrics: %v", err)
		}
		if err := os.WriteFile(*jsonOut, append(data, '\n'), 0o644); err != nil {
			log.Fatalf("write %s: %v", *jsonOut, err)
		}
		fmt.Printf("\nmetrics written to %s\n", *jsonOut)
	}
}
