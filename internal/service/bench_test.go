package service

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/monitor"
)

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

// recordedPlan is one plan interval's journal inputs, privately owned: the
// body a service.Client posts for it and the response.
type recordedPlan struct {
	body []byte
	resp *PlanResponse
}

// BenchmarkJournalAppendPlan measures what one plan spends on its response
// encoding and WAL append — the ledger's service.journal and response-encode
// rows — replaying a recorded catalogue stream into a real journal file under
// each fsync mode. The snapshot bytes are what handlePlan journals, the bodies
// the client posts: the first interval in full, every later one as its delta.
// B/op and allocs/op show whether the pooled buffers hold.
func BenchmarkJournalAppendPlan(b *testing.B) {
	for _, key := range []string{"genome-s", "genome-l"} {
		rs := recordStream(b, key, 1)
		plans := make([]recordedPlan, len(rs.snaps))
		for i, snap := range rs.snaps {
			posted := snap
			if i > 0 {
				posted = deltaOf(rs.snaps[i-1], snap)
			}
			body, err := monitor.AppendSnapshotJSON(nil, posted)
			if err != nil {
				b.Fatal(err)
			}
			plans[i] = recordedPlan{body: body, resp: rs.want[i]}
		}
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
					if err := j.appendPlan(p.resp.Seq, p.body, respJSON); err != nil {
						b.Fatal(err)
					}
					putBuf(body)
				}
			})
		}
	}
}
