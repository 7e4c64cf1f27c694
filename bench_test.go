// BenchmarkExperiments runs the TeNDaX reproduction experiments E1–E19
// (internal/experiments, DESIGN.md §12) under testing.B: one sub-benchmark
// per experiment, each iteration a full quick-mode run, reporting the
// experiment's metrics. cmd/tendax-bench runs the same code and prints the
// tables; select one experiment with e.g. -bench 'Experiments/E11$'.
package tendax_test

import (
	"strings"
	"testing"

	"tendax/internal/experiments"
)

func BenchmarkExperiments(b *testing.B) {
	for _, e := range experiments.All {
		b.Run(strings.ToUpper(e.ID), func(b *testing.B) {
			var rep experiments.Report
			for i := 0; i < b.N; i++ {
				var err error
				if rep, err = e.Run(experiments.Config{Quick: true}); err != nil {
					b.Fatal(err)
				}
			}
			for name, m := range rep.Metrics {
				b.ReportMetric(m.Value, name)
			}
		})
	}
}
