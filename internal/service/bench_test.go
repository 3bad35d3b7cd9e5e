package service

import (
	"bytes"
	"runtime/debug"
	"testing"

	"repro/internal/monitor"
)

// recordedPlan is one plan interval's journal inputs, privately owned: the
// body a service.Client posts for it and the response.
type recordedPlan struct {
	body []byte
	resp *PlanResponse
}

// recordedPlans records key's catalogue stream as journal inputs: the
// snapshot bytes are what handlePlan journals, the bodies the client posts —
// the first interval in full, every later one as its delta.
func recordedPlans(tb testing.TB, key string) []recordedPlan {
	rs := recordStream(tb, key, 1)
	plans := make([]recordedPlan, len(rs.snaps))
	for i, snap := range rs.snaps {
		posted := snap
		if i > 0 {
			posted = deltaOf(rs.snaps[i-1], snap)
		}
		body, err := monitor.AppendSnapshotJSON(nil, posted)
		if err != nil {
			tb.Fatal(err)
		}
		plans[i] = recordedPlan{body: body, resp: rs.want[i]}
	}
	return plans
}

// planJournal replays recorded plans into a real journal file under one
// fsync mode, one session's worth per file.
type planJournal struct {
	tb    testing.TB
	srv   *Server
	j     *journal
	plans []recordedPlan
}

func newPlanJournal(tb testing.TB, plans []recordedPlan, mode string) *planJournal {
	pj := &planJournal{tb: tb, srv: New(Config{JournalDir: tb.TempDir(), FsyncMode: mode}), plans: plans}
	pj.reopen()
	tb.Cleanup(func() { pj.j.close(true) })
	return pj
}

// reopen starts the next session's file.
func (pj *planJournal) reopen() {
	pj.j.close(true)
	var err error
	if pj.j, err = pj.srv.openJournalAt(pj.srv.journalPath("bench"), 0); err != nil {
		pj.tb.Fatal(err)
	}
}

// append is what one plan spends on its response encoding and WAL append:
// the i-th plan of the session, modulo its length.
func (pj *planJournal) append(i int) {
	p := &pj.plans[i%len(pj.plans)]
	body := getBuf()
	reserve(body, p.resp.encodedSizeHint())
	respJSON, err := p.resp.AppendJSON(body.AvailableBuffer())
	if err != nil {
		pj.tb.Fatal(err)
	}
	*body = *bytes.NewBuffer(respJSON)
	if err := pj.j.appendPlan(p.resp.Seq, p.body, respJSON); err != nil {
		pj.tb.Fatal(err)
	}
	putBuf(body)
}

var (
	journalKeys  = []string{"genome-s", "genome-l"}
	journalModes = []string{FsyncOff, FsyncPerInterval, FsyncRecord}
)

// BenchmarkJournalAppendPlan measures what one plan spends on its response
// encoding and WAL append — the ledger's service.journal and response-encode
// rows — replaying a recorded catalogue stream into a real journal file under
// each fsync mode. B/op and allocs/op show whether the pooled buffers hold.
func BenchmarkJournalAppendPlan(b *testing.B) {
	for _, key := range journalKeys {
		plans := recordedPlans(b, key)
		for _, mode := range journalModes {
			b.Run(key+"/"+mode, func(b *testing.B) {
				pj := newPlanJournal(b, plans, mode)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if i > 0 && i%len(plans) == 0 {
						b.StopTimer()
						pj.reopen()
						b.StartTimer()
					}
					pj.append(i)
				}
			})
		}
	}
}

// TestJournalAppendPlanAllocs holds the plan append to zero heap allocations
// per plan, over one session's worth of plans, for every workflow and fsync
// mode BenchmarkJournalAppendPlan measures. Unlike its timing, the count does
// not depend on the machine.
func TestJournalAppendPlanAllocs(t *testing.T) {
	if raceEnabled() {
		t.Skip("the race detector makes sync.Pool drop buffers")
	}
	for _, key := range journalKeys {
		plans := recordedPlans(t, key)
		for _, mode := range journalModes {
			t.Run(key+"/"+mode, func(t *testing.T) {
				pj := newPlanJournal(t, plans, mode)
				i := 0
				// AllocsPerRun's warm-up call journals the first plan.
				got := testing.AllocsPerRun(len(plans)-1, func() { pj.append(i); i++ })
				if got > 0 {
					t.Errorf("%s/%s: %v allocs per plan, bound 0", key, mode, got)
				}
			})
		}
	}
}

// raceEnabled reports whether the test binary was built with -race.
func raceEnabled() bool {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return false
	}
	for _, s := range bi.Settings {
		if s.Key == "-race" {
			return s.Value == "true"
		}
	}
	return false
}
