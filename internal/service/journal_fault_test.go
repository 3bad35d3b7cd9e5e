package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/audit"
	"repro/internal/dagio"
	"repro/internal/monitor"
	"repro/internal/wal/waltest"
)

// logSink collects a server's log lines.
type logSink struct {
	mu    sync.Mutex
	lines []string
}

func (l *logSink) logf(format string, args ...any) {
	l.mu.Lock()
	l.lines = append(l.lines, fmt.Sprintf(format, args...))
	l.mu.Unlock()
}

func (l *logSink) contains(sub string) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, line := range l.lines {
		if strings.Contains(line, sub) {
			return true
		}
	}
	return false
}

// walSeqs reads a WAL strictly — every line must be a whole record — and
// returns its plan sequence numbers and recorded responses in file order.
func walSeqs(t *testing.T, path string) (seqs []int64, resps []*PlanResponse) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) > 0 && data[len(data)-1] != '\n' {
		t.Fatalf("%s does not end on a record boundary", filepath.Base(path))
	}
	for i, line := range splitLines(data) {
		var rec walRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			t.Fatalf("%s line %d is not a whole record: %v", filepath.Base(path), i+1, err)
		}
		if rec.Type == "plan" {
			seqs = append(seqs, rec.Seq)
			resps = append(resps, rec.Response)
		}
	}
	return seqs, resps
}

// TestJournalFailedAppendKeepsLog injects one failed write — outright and
// short — into a session's WAL mid-run and keeps planning. The partial bytes
// must not stay in the file (replay would cut them off together with every
// acknowledged record behind them), and the record whose write failed must
// reach the log with the next append: after the run every acknowledged plan,
// before, at and after the failure, replays, and the auditor finds nothing.
func TestJournalFailedAppendKeepsLog(t *testing.T) {
	for _, short := range []bool{false, true} {
		t.Run(fmt.Sprintf("short=%v", short), func(t *testing.T) {
			dir := t.TempDir()
			var logs logSink
			srv, client := newTestServer(t, Config{JournalDir: dir, Logf: logs.logf})
			ctx := context.Background()
			wf := smallWorkflow(4)
			info, err := client.CreateSession(ctx, CreateSessionRequest{Workflow: dagio.Encode(wf)})
			if err != nil {
				t.Fatal(err)
			}
			snap := readySnapshot(wf)
			var acked []*PlanResponse
			plan := func(seq int64) {
				t.Helper()
				resp, err := client.Plan(ctx, info.ID, seq, snap)
				if err != nil {
					t.Fatalf("seq %d: %v", seq, err)
				}
				acked = append(acked, resp)
			}
			plan(1)
			plan(2)
			sess, err := srv.Store().Get(info.ID)
			if err != nil {
				t.Fatal(err)
			}
			sess.mu.Lock()
			sess.wal.Wrap(waltest.Faulty{FailWrites: 1, Short: short}.Under())
			sess.mu.Unlock()
			plan(3) // its append fails; the decision is still served
			if !logs.contains("journal append failed") {
				t.Error("the failed append was not logged")
			}
			plan(4)
			plan(5)

			walPath := filepath.Join(dir, info.ID+".wal")
			seqs, recorded := walSeqs(t, walPath)
			if fmt.Sprint(seqs) != "[1 2 3 4 5]" {
				t.Fatalf("WAL holds plan seqs %v, want [1 2 3 4 5]", seqs)
			}
			for i, resp := range recorded {
				if resp.Iteration != acked[i].Iteration || !sameDecision(resp.Decision, acked[i].Decision) {
					t.Errorf("seq %d: journaled %+v, client was served %+v", seqs[i], resp, acked[i])
				}
			}

			srv2, c2 := newTestServer(t, Config{JournalDir: dir})
			if srv2.Store().Len() != 1 {
				t.Fatalf("recovered %d sessions, want 1", srv2.Store().Len())
			}
			replayed, err := c2.Plan(ctx, info.ID, 5, snap)
			if err != nil {
				t.Fatalf("retrying seq 5 against the recovered daemon: %v", err)
			}
			if replayed.Iteration != acked[4].Iteration || !sameDecision(replayed.Decision, acked[4].Decision) {
				t.Fatalf("recovered cache diverged: %+v != %+v", replayed, acked[4])
			}
			rep, err := audit.Run(audit.Config{Dirs: []string{dir}})
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Clean() || rep.Plans != 5 {
				t.Fatalf("audit after a failed append: %d plan(s), violations %+v", rep.Plans, rep.Violations)
			}
		})
	}
}

// TestJournalDetachedWhenUnrepairable covers the two cases a WAL cannot be
// kept clean: the disk refuses a second append in a row, or the truncate that
// would remove a partial write fails too. The journal is detached — logged —
// and the session keeps serving from memory; what is on disk stays a prefix
// of whole records (closing retries the one record held back; recovery's
// torn-tail scan deals with an untruncated tail).
func TestJournalDetachedWhenUnrepairable(t *testing.T) {
	cases := []struct {
		name  string
		fault waltest.Faulty
		// detachedAt is the plan seq whose append finds the journal broken;
		// survive is what replay finds in the log afterwards.
		detachedAt int64
		survive    string
	}{
		{"two failed appends in a row", waltest.Faulty{FailWrites: 2}, 4, "[1 2 3]"},
		{"truncate fails", waltest.Faulty{FailWrites: 1, Short: true, FailTruncate: true}, 3, "[1 2]"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			var logs logSink
			srv, client := newTestServer(t, Config{JournalDir: dir, Logf: logs.logf})
			ctx := context.Background()
			wf := smallWorkflow(4)
			info, err := client.CreateSession(ctx, CreateSessionRequest{Workflow: dagio.Encode(wf)})
			if err != nil {
				t.Fatal(err)
			}
			snap := readySnapshot(wf)
			sess, err := srv.Store().Get(info.ID)
			if err != nil {
				t.Fatal(err)
			}
			for seq := int64(1); seq <= 5; seq++ {
				if seq == 3 {
					sess.mu.Lock()
					sess.wal.Wrap(tc.fault.Under())
					sess.mu.Unlock()
				}
				if _, err := client.Plan(ctx, info.ID, seq, snap); err != nil {
					t.Fatalf("seq %d: %v", seq, err)
				}
				sess.mu.Lock()
				detached := sess.wal == nil
				sess.mu.Unlock()
				if detached != (seq >= tc.detachedAt) {
					t.Fatalf("after seq %d: journal detached = %v", seq, detached)
				}
			}
			if !logs.contains("journal detached from session " + info.ID) {
				t.Error("detaching the journal was not logged")
			}
			srv2 := New(Config{JournalDir: dir})
			if srv2.Store().Len() != 1 {
				t.Fatalf("recovered %d sessions, want 1", srv2.Store().Len())
			}
			if seqs, _ := walSeqs(t, filepath.Join(dir, info.ID+".wal")); fmt.Sprint(seqs) != tc.survive {
				t.Fatalf("after recovery the WAL holds plan seqs %v, want the clean prefix %s", seqs, tc.survive)
			}
		})
	}
}

// TestPlanResponseBytesNotAliased plans many sessions of different sizes at
// once against a journaling daemon and checks every response body byte for
// byte. The body is the pooled buffer the WAL record was framed from; were it
// handed back to the pool before the write to the client finished, another
// plan's encoder would scribble over it — a data race under -race, and a body
// that is not this session's response without it.
func TestPlanResponseBytesNotAliased(t *testing.T) {
	srv, client := newTestServer(t, Config{JournalDir: t.TempDir()})
	ctx := context.Background()
	const workers, plans = 8, 12
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			wf := smallWorkflow(3 + 40*w)
			info, err := client.CreateSession(ctx, CreateSessionRequest{Workflow: dagio.Encode(wf)})
			if err != nil {
				t.Error(err)
				return
			}
			lean := *readySnapshot(wf)
			lean.Workflow = nil
			reqBody, err := monitor.AppendSnapshotJSON(nil, &lean)
			if err != nil {
				t.Error(err)
				return
			}
			for seq := int64(1); seq <= plans; seq++ {
				req, err := http.NewRequest(http.MethodPost, client.base+"/v1/sessions/"+info.ID+"/plan", bytes.NewReader(reqBody))
				if err != nil {
					t.Error(err)
					return
				}
				req.Header.Set(PlanSeqHeader, fmt.Sprint(seq))
				res, err := http.DefaultClient.Do(req)
				if err != nil {
					t.Error(err)
					return
				}
				got, err := io.ReadAll(res.Body)
				res.Body.Close()
				if err != nil || res.StatusCode != http.StatusOK {
					t.Errorf("session %d seq %d: status %d, read error %v", w, seq, res.StatusCode, err)
					return
				}
				sess, err := srv.Store().Get(info.ID)
				if err != nil {
					t.Error(err)
					return
				}
				sess.mu.Lock()
				want := bytes.Clone(sess.lastBody)
				sess.mu.Unlock()
				if !bytes.Equal(got, want) {
					t.Errorf("session %d seq %d: body is not this session's response\ngot:  %.120s\nwant: %.120s", w, seq, got, want)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}
