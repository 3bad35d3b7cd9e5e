package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/dagio"
	"repro/internal/monitor"
)

// The replay latch certificate. An adoption answers once its WALs are claimed
// (fenced, copied, the session in the store latched); the replay comes after,
// and every request for a claimed session waits for it. To look at a session
// in the middle of its replay these tests hand the adopter WALs whose last
// record is torn in two: the replay logs the torn tail after it has read every
// whole record and before the session is published, and replayGate holds it
// there until the test opens the gate.

// replayGate stops every replay that logs a torn tail until open is called.
type replayGate struct {
	reached chan string // the WAL name of each replay as it stops
	release chan struct{}
	once    sync.Once
}

func newReplayGate(t *testing.T) *replayGate {
	g := &replayGate{reached: make(chan string), release: make(chan struct{})}
	t.Cleanup(g.open)
	return g
}

// logf is the adopter's Config.Logf.
func (g *replayGate) logf(format string, args ...any) {
	if !strings.Contains(format, "torn record") {
		return
	}
	select {
	case g.reached <- args[0].(string):
	case <-g.release:
	}
	<-g.release
}

func (g *replayGate) open() { g.once.Do(func() { close(g.release) }) }

// stopped waits for n replays to stop at the gate.
func (g *replayGate) stopped(t *testing.T, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		select {
		case <-g.reached:
		case <-time.After(10 * time.Second):
			t.Fatalf("%d of %d replays reached the gate", i, n)
		}
	}
}

// latchDonor journals n sessions of the fan workflow, each planned for two
// intervals (a full snapshot, then a delta), and returns their IDs and the
// donor's journal directory.
func latchDonor(t *testing.T, n int) (ids []string, dir string) {
	t.Helper()
	donor := newJournaledShard(t, t.TempDir())
	wf := fanWorkflow()
	snaps := goldenSnapshots(wf)
	for i := 0; i < n; i++ {
		id := "latched-" + string(rune('a'+i%26)) + strings.Repeat("x", i/26)
		donor.create(t, id, CreateSessionRequest{Workflow: dagio.Encode(wf), Tenant: "acme"})
		for seq, posted := range []*monitor.Snapshot{snaps[0], deltaOf(snaps[0], snaps[1])} {
			if status, body := donor.postSnapshot(t, id, int64(seq+1), posted); status != http.StatusOK {
				t.Fatalf("%s seq %d: HTTP %d %s", id, seq+1, status, body)
			}
		}
		ids = append(ids, id)
	}
	return ids, donor.dir
}

// walCopies copies the named sessions' WALs out of dir into a fresh
// directory, tearing each one's last line when torn is set: a record cut
// short by a crash, which replay truncates away.
func walCopies(t *testing.T, dir string, ids []string, torn bool) (copies string, paths []string) {
	t.Helper()
	copies = t.TempDir()
	for _, id := range ids {
		data, err := os.ReadFile(filepath.Join(dir, id+".wal"))
		if err != nil {
			t.Fatal(err)
		}
		if torn {
			data = append(data, `{"type":"plan","seq":3,"snap`...)
		}
		path := filepath.Join(copies, id+".wal")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		paths = append(paths, path)
	}
	return copies, paths
}

// latchAdopter is a shard-mode daemon with the donor's clock, logging to logf.
func latchAdopter(t *testing.T, logf func(string, ...any)) *journaledShard {
	dir := t.TempDir()
	clock := func() time.Time { return time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC) }
	srv := New(Config{ShardMode: true, JournalDir: dir, clock: clock, Logf: logf})
	return &journaledShard{srv: srv, h: srv.Handler(), dir: dir}
}

// adopt posts an adoption of the files at epoch 5 and returns its count.
func (d *journaledShard) adopt(t *testing.T, files []string) int {
	t.Helper()
	body, _ := json.Marshal(AdoptRequest{JournalFiles: files, From: "donor", Epoch: 5})
	w := httptest.NewRecorder()
	d.h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/admin/adopt", bytes.NewReader(body)))
	var ar AdoptResponse
	if err := json.Unmarshal(w.Body.Bytes(), &ar); w.Code != http.StatusOK || err != nil {
		t.Fatalf("adopt: HTTP %d %s", w.Code, w.Body)
	}
	return ar.Sessions
}

// faultTolerance reads the daemon's /metrics block.
func (d *journaledShard) faultTolerance(t *testing.T) FaultToleranceCounters {
	t.Helper()
	w := httptest.NewRecorder()
	d.h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	var md MetricsDump
	if err := json.Unmarshal(w.Body.Bytes(), &md); err != nil {
		t.Fatal(err)
	}
	return md.FaultTolerance
}

// served is what a session answers: the retried second interval (from the
// exactly-once cache), a new third interval (from the replayed controller),
// and the session state.
type served struct {
	codes  [3]int
	bodies [3][]byte
}

func serve(d *journaledShard, id string) served {
	var s served
	snaps := goldenSnapshots(fanWorkflow())
	retry, _ := monitor.AppendSnapshotJSON(nil, deltaOf(snaps[0], snaps[1]))
	next, _ := monitor.AppendSnapshotJSON(nil, snaps[2])
	s.codes[0], s.bodies[0] = d.post(id, 2, retry)
	s.codes[1], s.bodies[1] = d.post(id, 3, next)
	w := httptest.NewRecorder()
	d.h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/v1/sessions/"+id+"/state", nil))
	s.codes[2], s.bodies[2] = w.Code, w.Body.Bytes()
	return s
}

// eagerServed is what the session answers on a daemon that replayed the WAL
// before it served anything — startup recovery, which New waits for.
func eagerServed(t *testing.T, donorDir, id string) served {
	t.Helper()
	dir, _ := walCopies(t, donorDir, []string{id}, true)
	return serve(newJournaledShard(t, dir), id)
}

// requireServed holds what a daemon served to what the eager daemon served,
// byte for byte.
func requireServed(t *testing.T, who string, got, want served) {
	t.Helper()
	for i := range got.bodies {
		if got.codes[i] != want.codes[i] || !bytes.Equal(got.bodies[i], want.bodies[i]) {
			t.Errorf("%s answers request %d with HTTP %d %s\nafter an eager replay: HTTP %d %s",
				who, i, got.codes[i], got.bodies[i], want.codes[i], want.bodies[i])
		}
	}
}

// TestLatchedPlansWaitForTheReplay: requests that arrive while the session
// replays wait, and then get the very bytes a daemon that replayed first
// serves. Meanwhile /metrics counts the session in sessions_awaiting_replay,
// and the router's merge sums the gauge.
func TestLatchedPlansWaitForTheReplay(t *testing.T) {
	ids, donor := latchDonor(t, 1)
	id := ids[0]
	want := eagerServed(t, donor, id)
	for i, code := range want.codes {
		if code != http.StatusOK {
			t.Fatalf("the eager daemon answers request %d with HTTP %d %s", i, code, want.bodies[i])
		}
	}

	gate := newReplayGate(t)
	a := latchAdopter(t, gate.logf)
	_, files := walCopies(t, donor, ids, true)
	if n := a.adopt(t, files); n != 1 {
		t.Fatalf("adopt answered %d sessions, want 1", n)
	}
	gate.stopped(t, 1)
	ft := a.faultTolerance(t)
	if ft.SessionsAwaitingReplay != 1 {
		t.Fatalf("sessions_awaiting_replay = %d mid-replay, want 1", ft.SessionsAwaitingReplay)
	}
	fleet := MetricsDump{FaultTolerance: ft}
	fleet.Merge(MetricsDump{FaultTolerance: ft})
	if fleet.FaultTolerance.SessionsAwaitingReplay != 2 {
		t.Errorf("merged sessions_awaiting_replay = %d, want 2", fleet.FaultTolerance.SessionsAwaitingReplay)
	}

	got := make(chan served, 1)
	go func() { got <- serve(a, id) }()
	select {
	case s := <-got:
		t.Fatalf("the session answered (HTTP %v) while its replay was stopped", s.codes)
	case <-time.After(50 * time.Millisecond):
	}
	gate.open()
	requireServed(t, "the adopter", <-got, want)
	if ft := a.faultTolerance(t); ft.SessionsAwaitingReplay != 0 || ft.JournalReplaysTotal != 1 {
		t.Errorf("after the replay: sessions_awaiting_replay = %d, journal_replays_total = %d; want 0 and 1",
			ft.SessionsAwaitingReplay, ft.JournalReplaysTotal)
	}
}

// TestLatchedSessionReplaysOnce stops every worker of the replay pool on a
// torn WAL, claims one more session behind them, and sends it eight requests
// at once. They are answered while the pool is still stopped — the first
// request replays the session itself instead of waiting for a worker — and
// the session is replayed exactly once, then and not again by the pool.
func TestLatchedSessionReplaysOnce(t *testing.T) {
	workers := replayWorkers()
	ids, donor := latchDonor(t, workers+1)
	id := ids[workers]
	_, blockers := walCopies(t, donor, ids[:workers], true)
	_, files := walCopies(t, donor, ids[workers:], false)
	want := eagerServed(t, donor, id)

	gate := newReplayGate(t)
	a := latchAdopter(t, gate.logf)
	if n := a.adopt(t, blockers); n != workers {
		t.Fatalf("adopt answered %d sessions, want %d", n, workers)
	}
	gate.stopped(t, workers)
	if n := a.adopt(t, files); n != 1 {
		t.Fatalf("adopt answered %d sessions, want 1", n)
	}

	snaps := goldenSnapshots(fanWorkflow())
	retry, _ := monitor.AppendSnapshotJSON(nil, deltaOf(snaps[0], snaps[1]))
	const callers = 8
	var codes [callers]int
	var bodies [callers][]byte
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			codes[i], bodies[i] = a.post(id, 2, retry)
		}(i)
	}
	wg.Wait()
	for i := range codes {
		if codes[i] != http.StatusOK || !bytes.Equal(bodies[i], want.bodies[0]) {
			t.Errorf("caller %d: HTTP %d %s, want the eager daemon's %s", i, codes[i], bodies[i], want.bodies[0])
		}
	}
	if ft := a.faultTolerance(t); ft.JournalReplaysTotal != 1 || ft.SessionsAwaitingReplay != workers {
		t.Fatalf("with the pool stopped: journal_replays_total = %d, sessions_awaiting_replay = %d; want 1 and %d",
			ft.JournalReplaysTotal, ft.SessionsAwaitingReplay, workers)
	}
	gate.open()
	a.srv.replays.wait()
	if ft := a.faultTolerance(t); ft.JournalReplaysTotal != int64(workers+1) || ft.SessionsAwaitingReplay != 0 {
		t.Errorf("after the pool: journal_replays_total = %d, sessions_awaiting_replay = %d; want %d and 0",
			ft.JournalReplaysTotal, ft.SessionsAwaitingReplay, workers+1)
	}
}

// TestLatchedReplayFailsAfterTheAck adopts a WAL whose last record is a delta
// against an interval the log no longer holds. The adoption counts it — it
// answers before the replay — and that count is all that differs from an
// adoption that replays first: the replay fails, the session answers 404, the
// copy is gone from the adopter's directory, the source stays fenced, and the
// failure is counted.
func TestLatchedReplayFailsAfterTheAck(t *testing.T) {
	golden, err := os.ReadFile(goldenWAL)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(golden, []byte{'\n'})
	src := filepath.Join(t.TempDir(), goldenSession+".wal")
	if err := os.WriteFile(src, bytes.Join([][]byte{lines[0], lines[1], lines[3]}, nil), 0o644); err != nil {
		t.Fatal(err)
	}
	a := latchAdopter(t, nil)
	if n := a.adopt(t, []string{src}); n != 1 {
		t.Fatalf("adopt answered %d sessions, want 1", n)
	}
	if status, body := a.post(goldenSession, 1, []byte(`{}`)); status != http.StatusNotFound {
		t.Fatalf("a session whose replay failed answers HTTP %d %s, want 404", status, body)
	}
	if n := a.srv.Store().Len(); n != 0 {
		t.Errorf("the store hosts %d sessions, want 0", n)
	}
	if _, err := os.Stat(filepath.Join(a.dir, goldenSession+".wal")); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("the adopter kept the copy it could not replay (stat: %v)", err)
	}
	if _, fenced := readFence(src); !fenced {
		t.Error("the source is not fenced")
	}
	a.srv.replays.wait() // the 404 may have come before the replay ended
	if ft := a.faultTolerance(t); ft.JournalReplayFailuresTotal != 1 || ft.JournalReplaysTotal != 0 || ft.SessionsAwaitingReplay != 0 {
		t.Errorf("journal_replay_failures_total = %d, journal_replays_total = %d, sessions_awaiting_replay = %d; want 1, 0, 0",
			ft.JournalReplayFailuresTotal, ft.JournalReplaysTotal, ft.SessionsAwaitingReplay)
	}
}

// TestLatchedReplayFencedMidway: while the adopter's replay is stopped, the
// adopter is declared dead after its ack and a peer adopts its whole journal
// directory at a newer epoch, fencing the adopter's copy. The peer serves the
// session as an eager daemon would; the adopter's replay must not serve it,
// not even a retried interval from its cache. A request there is told the
// session moved, the store lets it go, and the copy stays where the newer
// claim found it.
func TestLatchedReplayFencedMidway(t *testing.T) {
	ids, donor := latchDonor(t, 1)
	id := ids[0]
	want := eagerServed(t, donor, id)
	gate := newReplayGate(t)
	a := latchAdopter(t, gate.logf)
	_, files := walCopies(t, donor, ids, true)
	if n := a.adopt(t, files); n != 1 {
		t.Fatalf("adopt answered %d sessions, want 1", n)
	}
	gate.stopped(t, 1)
	peer := latchAdopter(t, nil)
	if total, fresh, err := peer.srv.AdoptJournalDir(a.dir, 6, "adopter"); total != 1 || fresh != 1 || err != nil {
		t.Fatalf("the peer adopted (%d, %d, %v), want (1, 1, nil)", total, fresh, err)
	}
	requireServed(t, "the peer", serve(peer, id), want)
	copyPath := filepath.Join(a.dir, id+".wal")
	a.srv.store.mu.Lock()
	c := a.srv.store.sessions[id].replay.Load()
	a.srv.store.mu.Unlock()

	// A request waiting for the replay is told the session moved (503
	// session_fenced); one that comes after finds no session (404).
	got := make(chan served, 1)
	go func() { got <- serve(a, id) }()
	select {
	case s := <-got:
		t.Fatalf("the session answered (HTTP %v) while its replay was stopped", s.codes)
	case <-time.After(50 * time.Millisecond):
	}
	gate.open()
	if err := c.wait(); !errors.Is(err, errFenced) {
		t.Fatalf("the claim ended with %v, want errFenced", err)
	}
	s := <-got
	var eb ErrorBody
	if moved := s.codes[0] == http.StatusServiceUnavailable && json.Unmarshal(s.bodies[0], &eb) == nil && eb.Code == CodeSessionFenced; !moved && s.codes[0] != http.StatusNotFound {
		t.Fatalf("the retried interval answered HTTP %d %s, want 503 %s or 404", s.codes[0], s.bodies[0], CodeSessionFenced)
	}
	if s.codes[1] != http.StatusNotFound || s.codes[2] != http.StatusNotFound {
		t.Errorf("afterwards the session answers HTTP %d and %d, want 404", s.codes[1], s.codes[2])
	}
	if n := a.srv.Store().Len(); n != 0 {
		t.Errorf("the store hosts %d sessions, want 0", n)
	}
	if _, err := os.Stat(copyPath); err != nil {
		t.Errorf("the fenced copy is gone: %v", err)
	}
	if ft := a.faultTolerance(t); ft.JournalReplayFailuresTotal != 0 || ft.JournalReplaysTotal != 0 {
		t.Errorf("journal_replay_failures_total = %d, journal_replays_total = %d; want 0 and 0",
			ft.JournalReplayFailuresTotal, ft.JournalReplaysTotal)
	}
}

// TestServeWaitsForReplays: a daemon shutting down returns from Serve only
// after the replays of the sessions it claimed have ended. A daemon killed
// in-process mid-replay (listener and connections closed, no Serve to wait)
// leaves nothing running once its replays end: the pool's workers exit with
// the queue, which the package's leak check holds them to.
func TestServeWaitsForReplays(t *testing.T) {
	ids, donor := latchDonor(t, 2)
	gate := newReplayGate(t)
	a := latchAdopter(t, gate.logf)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- a.srv.Serve(ctx, ln) }()
	_, files := walCopies(t, donor, ids[:1], true)
	if n := a.adopt(t, files); n != 1 {
		t.Fatalf("adopt answered %d sessions, want 1", n)
	}
	gate.stopped(t, 1)
	cancel()
	select {
	case err := <-done:
		t.Fatalf("Serve returned (%v) with a replay in flight", err)
	case <-time.After(50 * time.Millisecond):
	}
	gate.open()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if n := a.srv.replays.awaiting(); n != 0 {
		t.Errorf("Serve returned with %d replays pending", n)
	}

	t.Run("killed mid-replay", func(t *testing.T) {
		gate := newReplayGate(t)
		k := latchAdopter(t, gate.logf)
		_, files := walCopies(t, donor, ids[1:], true)
		// The replay writes in the temporary directories: they are removed
		// once it has ended.
		t.Cleanup(func() {
			gate.open()
			k.srv.replays.wait()
		})
		ts := httptest.NewServer(k.h)
		body, _ := json.Marshal(AdoptRequest{JournalFiles: files, From: "donor", Epoch: 5})
		resp, err := http.Post(ts.URL+"/v1/admin/adopt", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		gate.stopped(t, 1)
		ts.Close()
		gate.open()
	})
}
