package scenario

import (
	"context"
	"net/http/httptest"
	"testing"

	"repro/internal/service"
)

// benchLoadgenSessions is the fixed session count of one benchmark
// iteration; sessions/sec in BENCH_<n>.json is derived from it.
const benchLoadgenSessions = 24

// BenchmarkLoadgenSessions is the plan-path acceptance benchmark: a full
// wire-serve loadgen run (genome-s catalogue workflows, WIRE policy,
// twin verification on) against an in-process daemon. The reported
// sessions/sec metric is the number gated in BENCH_<n>.json.
func BenchmarkLoadgenSessions(b *testing.B) {
	srv := service.New(service.Config{MaxSessions: 256})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := service.NewClient(ts.URL)

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := Run(context.Background(), Config{
			Client:      client,
			Sessions:    benchLoadgenSessions,
			Concurrency: 8,
			Policy:      "wire",
			WorkflowKey: "genome-s",
			Cloud:       testCloud,
			SeedBase:    int64(i) * benchLoadgenSessions,
			Verify:      true,
		})
		if err != nil {
			b.Fatal(err)
		}
		if err := res.Verdict(); err != nil {
			b.Fatalf("%v: %v", err, res.Errors)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N*benchLoadgenSessions)/b.Elapsed().Seconds(), "sessions/sec")
}
