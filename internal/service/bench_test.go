package service

import (
	"bytes"
	"context"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/monitor"
)

// benchLoadgenSessions is the fixed session count of one benchmark
// iteration; sessions/sec in BENCH_<n>.json is derived from it.
const benchLoadgenSessions = 24

// BenchmarkLoadgenSessions is the plan-path acceptance benchmark: a full
// wire-serve loadgen run (genome-s catalogue workflows, WIRE policy,
// twin verification on) against an in-process daemon. The reported
// sessions/sec metric is the number gated in BENCH_<n>.json.
func BenchmarkLoadgenSessions(b *testing.B) {
	srv := New(Config{MaxSessions: 256})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := NewClient(ts.URL)

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := Loadgen(context.Background(), LoadgenConfig{
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
		if res.Failed != 0 || res.Mismatched != 0 {
			b.Fatalf("failed %d / mismatched %d: %v", res.Failed, res.Mismatched, res.Errors)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N*benchLoadgenSessions)/b.Elapsed().Seconds(), "sessions/sec")
}

// BenchmarkMetricsObserveParallel hammers Metrics.Observe from all procs —
// the contention profile of the plan path's instrumentation middleware.
func BenchmarkMetricsObserveParallel(b *testing.B) {
	m := NewMetrics(time.Now())
	endpoints := [...]string{"plan", "create_session", "session_state", "delete_session"}
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			m.Observe(endpoints[i%len(endpoints)], time.Duration(i%1000)*time.Microsecond, false)
			i++
		}
	})
}

// recordedPlan is one plan interval's journal inputs, privately owned.
type recordedPlan struct {
	snap     *monitor.Snapshot
	resp     *PlanResponse
	snapSize int
}

// BenchmarkJournalAppendPlan measures what one plan spends on its response
// encoding and WAL append — the ledger's service.journal and response-encode
// rows — replaying a recorded catalogue stream into a real journal file under
// each fsync mode. B/op and allocs/op show whether the pooled buffers hold.
func BenchmarkJournalAppendPlan(b *testing.B) {
	for _, key := range []string{"genome-s", "genome-l"} {
		var plans []recordedPlan
		recordPlans(b, key, 1, func(seq int64, lean *monitor.Snapshot, resp *PlanResponse) {
			// The simulator reuses its snapshot; keep a deep copy.
			body, err := monitor.AppendSnapshotJSON(nil, lean)
			if err != nil {
				b.Fatal(err)
			}
			cp := new(monitor.Snapshot)
			if err := monitor.UnmarshalSnapshot(body, cp); err != nil {
				b.Fatal(err)
			}
			plans = append(plans, recordedPlan{snap: cp, resp: resp, snapSize: len(body)})
		})
		for _, mode := range []string{FsyncOff, FsyncPerInterval, FsyncRecord} {
			b.Run(key+"/"+mode, func(b *testing.B) {
				srv := New(Config{JournalDir: b.TempDir(), FsyncMode: mode})
				path := srv.journalPath("bench")
				var j *journal
				reopen := func() {
					j.close(true)
					var err error
					if j, err = srv.openJournalAt(path, 0); err != nil {
						b.Fatal(err)
					}
				}
				reopen()
				defer func() { j.close(true) }()
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					p := &plans[i%len(plans)]
					if i > 0 && i%len(plans) == 0 {
						// One session's worth written; start the next file.
						b.StopTimer()
						reopen()
						b.StartTimer()
					}
					body := getBuf()
					reserve(body, p.resp.encodedSizeHint())
					respJSON, err := p.resp.AppendJSON(body.AvailableBuffer())
					if err != nil {
						b.Fatal(err)
					}
					*body = *bytes.NewBuffer(respJSON)
					if err := j.appendPlan(p.resp.Seq, p.snap, respJSON, p.snapSize); err != nil {
						b.Fatal(err)
					}
					putBuf(body)
				}
			})
		}
	}
}
