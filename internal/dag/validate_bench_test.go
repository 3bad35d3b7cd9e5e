package dag_test

import (
	"testing"

	"repro/internal/workloads"
)

// BenchmarkValidate checks the two largest catalogue shapes: Genome-L by
// task count (4,005 tasks) and PageRank-L by edge count. It is a layer
// measurement, not part of the gated benchmark set.
func BenchmarkValidate(b *testing.B) {
	for _, key := range []string{"genome-l", "pagerank-l"} {
		run, ok := workloads.ByKey(key)
		if !ok {
			b.Fatalf("no catalogue run %q", key)
		}
		wf := run.Generate(1)
		edges := 0
		for _, t := range wf.Tasks {
			edges += len(t.Deps)
		}
		b.Run(key, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := wf.Validate(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(wf.NumTasks()), "tasks")
			b.ReportMetric(float64(edges), "edges")
		})
	}
}
