package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dagio"
	"repro/internal/monitor"
	"repro/internal/service"
)

// postAdminT POSTs one admin request and decodes the JSON response into out.
func postAdminT(t *testing.T, url string, body any, out any) *http.Response {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	}
	return resp
}

// planAll seeds every session's exactly-once cache at seq and records the
// released decision bytes.
func planAll(t *testing.T, client *service.Client, ids []string, seq int64) map[string]string {
	t.Helper()
	snap := readySnapshot(smallWorkflow(3))
	out := make(map[string]string, len(ids))
	for _, id := range ids {
		pr, err := client.Plan(context.Background(), id, seq, snap)
		if err != nil {
			t.Fatalf("plan %s: %v", id, err)
		}
		b, _ := json.Marshal(pr.Decision)
		out[id] = string(b)
	}
	return out
}

// requireCachedDecisions replays seq for every session through the router and
// requires the byte-identical decision the original shard released.
func requireCachedDecisions(t *testing.T, client *service.Client, want map[string]string, seq int64) {
	t.Helper()
	snap := readySnapshot(smallWorkflow(3))
	for id, decision := range want {
		pr, err := client.Plan(context.Background(), id, seq, snap)
		if err != nil {
			t.Fatalf("replay %s: %v", id, err)
		}
		b, _ := json.Marshal(pr.Decision)
		if string(b) != decision {
			t.Fatalf("session %s: decision changed across the topology change:\n got %s\nwant %s", id, b, decision)
		}
	}
}

// TestDrainMovesSessions is the graceful-decommission test: draining a shard
// migrates every session it hosts to the surviving peers, removes it from
// the ring, and preserves each session's exactly-once plan cache
// byte-identically.
func TestDrainMovesSessions(t *testing.T) {
	rt, rts, fleet := startFleet(t, 3, RouterConfig{})
	client := service.NewClient(rts.URL)
	ids := createSessions(t, client, 24)
	decisions := planAll(t, client, ids, 1)

	// Drain a shard that actually hosts sessions.
	var donor *testShard
	for _, f := range fleet {
		if f.srv.Store().Len() > 0 {
			donor = f
			break
		}
	}
	if donor == nil {
		t.Fatal("no shard hosts a session")
	}
	hosted := donor.srv.Store().Len()

	var dr DrainResult
	resp := postAdminT(t, rts.URL+"/v1/admin/drain", map[string]string{"shard": donor.shard.Name}, &dr)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("drain answered %d", resp.StatusCode)
	}
	if dr.SessionsMoved < hosted {
		t.Errorf("drain moved %d sessions, donor hosted %d", dr.SessionsMoved, hosted)
	}
	if got := donor.srv.Store().Len(); got != 0 {
		t.Errorf("drained shard still hosts %d sessions", got)
	}
	if c := rt.Counters(); c.DrainsTotal != 1 || c.ShardsUp != 2 {
		t.Errorf("counters after drain: drains=%d shards_up=%d, want 1 and 2", c.DrainsTotal, c.ShardsUp)
	}
	for _, name := range rt.Ring().shards {
		if name == donor.shard.Name {
			t.Errorf("drained shard %s still on the ring", name)
		}
	}

	// Every session answers with its cached decision, and new creates avoid
	// the departed member.
	requireCachedDecisions(t, client, decisions, 1)
	for _, id := range createSessions(t, client, 8) {
		if sh, st := rt.resolve(id); st != routeOK || sh.Name == donor.shard.Name {
			t.Errorf("new session %s resolved to %s (state %v)", id, sh.Name, st)
		}
	}

	// Draining a shard that is not up is refused.
	resp = postAdminT(t, rts.URL+"/v1/admin/drain", map[string]string{"shard": donor.shard.Name}, nil)
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("re-drain answered %d, want 409", resp.StatusCode)
	}
}

// TestDrainLastShardRefused pins that the final live shard cannot drain out:
// there is nowhere for its sessions to go.
func TestDrainLastShardRefused(t *testing.T) {
	_, rts, fleet := startFleet(t, 1, RouterConfig{})
	resp := postAdminT(t, rts.URL+"/v1/admin/drain", map[string]string{"shard": fleet[0].shard.Name}, nil)
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("draining the last shard answered %d, want 409", resp.StatusCode)
	}
}

// TestJoinRebalances is the join-time rebalancing test: a brand-new shard
// joins a live 2-shard cluster, only the minimally-remapped key ranges
// migrate onto it, and every moved session's exactly-once cache survives.
func TestJoinRebalances(t *testing.T) {
	rt, rts, _ := startFleet(t, 2, RouterConfig{})
	client := service.NewClient(rts.URL)
	ids := createSessions(t, client, 24)
	decisions := planAll(t, client, ids, 1)

	// A third shard, started out-of-band (as an operator would).
	jdir := filepath.Join(t.TempDir(), "s9")
	newSrv := service.New(service.Config{ShardMode: true, JournalDir: jdir})
	ts := httptest.NewServer(newSrv.Handler())
	t.Cleanup(ts.Close)

	var jr JoinResult
	resp := postAdminT(t, rts.URL+"/v1/admin/join", map[string]string{
		"name": "s9", "url": ts.URL, "journal_dir": jdir,
	}, &jr)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("join answered %d", resp.StatusCode)
	}
	if jr.Rejoined {
		t.Error("a brand-new shard reported rejoined=true")
	}
	if c := rt.Counters(); c.JoinsTotal != 1 || c.ShardsUp != 3 {
		t.Errorf("counters after join: joins=%d shards_up=%d, want 1 and 3", c.JoinsTotal, c.ShardsUp)
	}

	// The ring now includes the newcomer, and the minimally-remapped
	// sessions actually moved there.
	onRing := false
	for _, name := range rt.Ring().shards {
		onRing = onRing || name == "s9"
	}
	if !onRing {
		t.Fatal("joined shard not on the ring")
	}
	if got := newSrv.Store().Len(); got == 0 {
		t.Error("no session migrated to the joined shard (24 sessions over a 2→3 rebalance should remap some)")
	} else if got != jr.SessionsMoved {
		t.Errorf("joined shard hosts %d sessions, join reported %d moved", got, jr.SessionsMoved)
	}

	requireCachedDecisions(t, client, decisions, 1)
}

// TestRejoinAfterFailoverFencing is the acceptance fencing test: a shard is
// killed, its sessions fail over to a peer, and a RESTARTED process on the
// same journal directory must come up empty (its WALs are fenced) while the
// STALE still-running process is refused when it tries to release a decision
// — no double-serve from either incarnation. The restarted process then
// rejoins by name and serves again through the authoritative path.
func TestRejoinAfterFailoverFencing(t *testing.T) {
	rt, rts, fleet := startFleet(t, 3, RouterConfig{
		HeartbeatInterval: 10 * time.Millisecond,
		FailThreshold:     2,
	})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	client := service.NewClient(rts.URL)
	ids := createSessions(t, client, 18)
	decisions := planAll(t, client, ids, 1)

	victim := -1
	for i, f := range fleet {
		if f.srv.Store().Len() > 0 {
			victim = i
			break
		}
	}
	if victim == -1 {
		t.Fatal("no shard hosts a session")
	}
	staleSrv := fleet[victim].srv // keeps running in-process: the stale incarnation
	victimName := fleet[victim].shard.Name
	var victimSession string
	for _, id := range ids {
		if _, err := staleSrv.Store().Get(id); err == nil {
			victimSession = id
			break
		}
	}

	go rt.Run(ctx)
	fleet[victim].ts.CloseClientConnections()
	fleet[victim].ts.Close()
	deadline := time.Now().Add(5 * time.Second)
	for rt.Counters().HandoffSessionsTotal == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if rt.Counters().HandoffSessionsTotal == 0 {
		t.Fatal("failover never completed")
	}

	// A restarted process on the same journal dir comes up EMPTY: every WAL
	// was fenced by the adoption.
	freshSrv := service.New(service.Config{ShardMode: true, JournalDir: fleet[victim].shard.JournalDir})
	if got := freshSrv.Store().Len(); got != 0 {
		t.Fatalf("restarted shard resurrected %d fenced sessions", got)
	}

	// The STALE incarnation must withhold new decisions: a direct plan at a
	// fresh seq against its still-live handler is refused with
	// session_fenced, not answered.
	snap := readySnapshot(smallWorkflow(3))
	body, err := monitor.AppendSnapshotJSON(nil, snap)
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodPost, "/v1/sessions/"+victimSession+"/plan", bytes.NewReader(body))
	req.Header.Set(service.PlanSeqHeader, "2")
	rec := httptest.NewRecorder()
	staleSrv.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("stale shard answered plan with %d, want 503 (double-serve!)", rec.Code)
	}
	var eb service.ErrorBody
	if err := json.NewDecoder(rec.Body).Decode(&eb); err != nil {
		t.Fatal(err)
	}
	if eb.Code != service.CodeSessionFenced {
		t.Errorf("stale shard error code %q, want %q", eb.Code, service.CodeSessionFenced)
	}

	// Rejoin-by-name: the fresh process takes the victim's place on the ring
	// (new URL), and the cluster serves every session again — cached
	// decisions intact.
	fts := httptest.NewServer(freshSrv.Handler())
	t.Cleanup(fts.Close)
	var jr JoinResult
	var resp *http.Response
	for i := 0; i < 100; i++ { // the member may still be mid-failover
		resp = postAdminT(t, rts.URL+"/v1/admin/join", map[string]string{
			"name": victimName, "url": fts.URL, "journal_dir": fleet[victim].shard.JournalDir,
		}, &jr)
		if resp.StatusCode == http.StatusOK {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("rejoin answered %d", resp.StatusCode)
	}
	if !jr.Rejoined {
		t.Error("rejoin-by-name reported rejoined=false")
	}
	if up := rt.Counters().ShardsUp; up != 3 {
		t.Errorf("shards_up = %d after rejoin, want 3", up)
	}
	requireCachedDecisions(t, client, decisions, 1)
}

// TestFailoverRetryPicksNewAdopter pins that a failover whose chosen adopter
// is itself dead re-selects a live peer: with both s0 and s1 killed, both
// failovers must terminate on s2 — whichever order the deaths are detected,
// an adoption attempt against the dead next-in-order peer fails and the
// retry walks on.
func TestFailoverRetryPicksNewAdopter(t *testing.T) {
	rt, rts, fleet := startFleet(t, 3, RouterConfig{
		HeartbeatInterval: 10 * time.Millisecond,
		FailThreshold:     2,
	})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	client := service.NewClient(rts.URL)
	ids := createSessions(t, client, 18)
	decisions := planAll(t, client, ids, 1)

	go rt.Run(ctx)
	for _, i := range []int{0, 1} {
		fleet[i].ts.CloseClientConnections()
		fleet[i].ts.Close()
	}

	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		rt.members.mu.Lock()
		done := rt.members.members["s0"].state == memberFailed && rt.members.members["s1"].state == memberFailed
		rt.members.mu.Unlock()
		if done {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	for _, name := range []string{"s0", "s1"} {
		sh, st := rt.members.follow(name)
		if st != routeOK || sh.Name != "s2" {
			t.Fatalf("%s routes to %q (state %v), want the sole survivor s2", name, sh.Name, st)
		}
	}
	// Every session answers from the survivor with its cache intact.
	retryClient := service.NewClient(rts.URL, service.WithRetry(service.DefaultChaosRetry()))
	snap := readySnapshot(smallWorkflow(3))
	for id, want := range decisions {
		pr, err := retryClient.Plan(context.Background(), id, 1, snap)
		if err != nil {
			t.Fatalf("session %s lost in double failover: %v", id, err)
		}
		b, _ := json.Marshal(pr.Decision)
		if string(b) != want {
			t.Fatalf("session %s: decision changed: %s != %s", id, b, want)
		}
	}
}

// TestPickAdopterUnknownDead pins the explicit error for a dead shard that is
// missing from the membership order — a table-corruption-class bug must not
// silently adopt its successor from position zero.
func TestPickAdopterUnknownDead(t *testing.T) {
	rt, _, _ := startFleet(t, 2, RouterConfig{})
	rt.members.mu.Lock()
	_, err := rt.members.successorLocked("ghost", "")
	rt.members.mu.Unlock()
	if err == nil || !strings.Contains(err.Error(), "not in the membership order") {
		t.Fatalf("successorLocked(ghost) = %v, want a membership-order error", err)
	}
}

// loseFirst is a shard transport that drops the first request to path before
// it reaches the shard, as a lost packet would, and passes every other one.
func loseFirst(path string) *http.Client {
	var lost atomic.Bool
	return &http.Client{Transport: roundTripFunc(func(r *http.Request) (*http.Response, error) {
		if r.URL.Path == path && lost.CompareAndSwap(false, true) {
			return nil, errors.New("request lost")
		}
		return http.DefaultTransport.RoundTrip(r)
	})}
}

// hostingShard returns a fleet member that hosts at least one session.
func hostingShard(t *testing.T, fleet []*testShard) *testShard {
	t.Helper()
	for _, f := range fleet {
		if f.srv.Store().Len() > 0 {
			return f
		}
	}
	t.Fatal("no shard hosts a session")
	return nil
}

// stateOf reads one member's state under the table lock.
func stateOf(rt *Router, name string) memberState {
	rt.members.mu.Lock()
	defer rt.members.mu.Unlock()
	return rt.members.members[name].state
}

// waitState polls until the named members are all in state st.
func waitState(t *testing.T, rt *Router, st memberState, names ...string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for _, name := range names {
		for stateOf(rt, name) != st {
			if time.Now().After(deadline) {
				t.Fatalf("shard %s is %s, want %s", name, stateOf(rt, name), st)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
}

// TestDrainRetriesAfterLostExport pins that a drain whose export was lost
// (502, nothing rolled back, the member left draining) can be run again: the
// retry is admitted at a fresh epoch and completes the drain.
func TestDrainRetriesAfterLostExport(t *testing.T) {
	rt, rts, fleet := startFleet(t, 3, RouterConfig{Client: loseFirst("/v1/admin/export")})
	client := service.NewClient(rts.URL)
	decisions := planAll(t, client, createSessions(t, client, 24), 1)
	donor := hostingShard(t, fleet)

	resp := postAdminT(t, rts.URL+"/v1/admin/drain", map[string]string{"shard": donor.shard.Name}, nil)
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("drain with a lost export answered %d, want 502", resp.StatusCode)
	}
	if st := stateOf(rt, donor.shard.Name); st != memberDraining {
		t.Fatalf("after the failed drain the donor is %s, want draining", st)
	}
	var dr DrainResult
	if resp = postAdminT(t, rts.URL+"/v1/admin/drain", map[string]string{"shard": donor.shard.Name}, &dr); resp.StatusCode != http.StatusOK {
		t.Fatalf("retried drain answered %d, want 200", resp.StatusCode)
	}
	if dr.Epoch != 2 {
		t.Errorf("retried drain ran at epoch %d, want a fresh epoch 2", dr.Epoch)
	}
	if st := stateOf(rt, donor.shard.Name); st != memberLeft {
		t.Errorf("after the retried drain the donor is %s, want left", st)
	}
	if got := donor.srv.Store().Len(); got != 0 {
		t.Errorf("drained shard still hosts %d sessions", got)
	}
	requireCachedDecisions(t, client, decisions, 1)
}

// TestJoinRetriesAfterLostExport pins that a join whose first export was lost
// (502 with nothing moved and nothing rolled back, the member left joining)
// can be run again at the same URL and commits.
func TestJoinRetriesAfterLostExport(t *testing.T) {
	rt, rts, _ := startFleet(t, 2, RouterConfig{Client: loseFirst("/v1/admin/export")})
	client := service.NewClient(rts.URL)
	decisions := planAll(t, client, createSessions(t, client, 24), 1)

	jdir := filepath.Join(t.TempDir(), "s9")
	newSrv := service.New(service.Config{ShardMode: true, JournalDir: jdir})
	ts := httptest.NewServer(newSrv.Handler())
	t.Cleanup(ts.Close)
	body := map[string]string{"name": "s9", "url": ts.URL, "journal_dir": jdir}

	if resp := postAdminT(t, rts.URL+"/v1/admin/join", body, nil); resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("join with a lost export answered %d, want 502", resp.StatusCode)
	}
	if st := stateOf(rt, "s9"); st != memberJoining {
		t.Fatalf("after the failed join s9 is %s, want joining", st)
	}
	var jr JoinResult
	if resp := postAdminT(t, rts.URL+"/v1/admin/join", body, &jr); resp.StatusCode != http.StatusOK {
		t.Fatalf("retried join answered %d, want 200", resp.StatusCode)
	}
	if jr.Epoch != 2 {
		t.Errorf("retried join ran at epoch %d, want a fresh epoch 2", jr.Epoch)
	}
	if c := rt.Counters(); c.JoinsTotal != 1 || c.ShardsUp != 3 {
		t.Errorf("counters after the retried join: joins=%d shards_up=%d, want 1 and 3", c.JoinsTotal, c.ShardsUp)
	}
	if got := newSrv.Store().Len(); got == 0 || got != jr.SessionsMoved {
		t.Errorf("joined shard hosts %d sessions, retried join reported %d moved", got, jr.SessionsMoved)
	}
	requireCachedDecisions(t, client, decisions, 1)
}

// TestDrainRollsBackWhenNoTargetAdopts pins the stalled-migration rollback:
// every target refuses the drain's adopts, so after migrateStallRounds the
// exported WALs go back to the donor, the drain answers 502, and the donor
// is up again serving every session it hosted with its cached decision.
func TestDrainRollsBackWhenNoTargetAdopts(t *testing.T) {
	var donorHost atomic.Value
	donorHost.Store("")
	refuse := roundTripFunc(func(r *http.Request) (*http.Response, error) {
		if r.URL.Path == "/v1/admin/adopt" && r.URL.Host != donorHost.Load().(string) {
			return nil, errors.New("adopt refused")
		}
		return http.DefaultTransport.RoundTrip(r)
	})
	rt, rts, fleet := startFleet(t, 3, RouterConfig{
		Client: &http.Client{Transport: refuse},
		// Forty stall rounds of one interval each; a threshold no refusal
		// reaches keeps the refusing targets from being confirmed down.
		HeartbeatInterval: time.Millisecond,
		FailThreshold:     1 << 20,
	})
	client := service.NewClient(rts.URL)
	decisions := planAll(t, client, createSessions(t, client, 24), 1)
	donor := hostingShard(t, fleet)
	hosted := donor.srv.Store().Len()
	donorHost.Store(strings.TrimPrefix(donor.shard.URL, "http://"))

	start := time.Now()
	resp := postAdminT(t, rts.URL+"/v1/admin/drain", map[string]string{"shard": donor.shard.Name}, nil)
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("drain with no adopting target answered %d, want 502", resp.StatusCode)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Errorf("rolled-back drain took %v", d)
	}
	if st := stateOf(rt, donor.shard.Name); st != memberUp {
		t.Errorf("after the rolled-back drain the donor is %s, want up", st)
	}
	if got := donor.srv.Store().Len(); got != hosted {
		t.Errorf("donor hosts %d sessions after the rollback, want %d", got, hosted)
	}
	if c := rt.Counters(); c.DrainsTotal != 0 || c.MigratedSessionsTotal != 0 {
		t.Errorf("counters after the rollback: drains=%d migrated=%d, want 0 and 0", c.DrainsTotal, c.MigratedSessionsTotal)
	}
	requireCachedDecisions(t, client, decisions, 1)
}

// TestDrainRepointsFailedMembers pins the drain-time re-point: s0 dies and
// fails over to s1, then s1 drains. s0's adopter pointer must move to the
// next up member after s0 skipping s1 — s2 — and s0's sessions must keep
// answering there.
func TestDrainRepointsFailedMembers(t *testing.T) {
	rt, rts, fleet := startFleet(t, 3, RouterConfig{
		HeartbeatInterval: 10 * time.Millisecond,
		FailThreshold:     2,
	})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	client := service.NewClient(rts.URL)
	decisions := planAll(t, client, createSessions(t, client, 24), 1)
	if fleet[0].srv.Store().Len() == 0 {
		t.Fatal("s0 hosts no session")
	}

	go rt.Run(ctx)
	fleet[0].ts.CloseClientConnections()
	fleet[0].ts.Close()
	waitState(t, rt, memberFailed, "s0")
	if sh, st := rt.members.follow("s0"); st != routeOK || sh.Name != "s1" {
		t.Fatalf("s0 failed over to %q (state %v), want s1", sh.Name, st)
	}

	if resp := postAdminT(t, rts.URL+"/v1/admin/drain", map[string]string{"shard": "s1"}, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("draining s0's adopter answered %d", resp.StatusCode)
	}
	if sh, st := rt.members.follow("s0"); st != routeOK || sh.Name != "s2" {
		t.Fatalf("after draining s1, s0 routes to %q (state %v), want s2", sh.Name, st)
	}
	retryClient := service.NewClient(rts.URL, service.WithRetry(service.DefaultChaosRetry()))
	requireCachedDecisions(t, retryClient, decisions, 1)
}

// logLines records a router's log lines for a test to search.
type logLines struct {
	mu    sync.Mutex
	lines []string
}

func (l *logLines) logf(format string, args ...any) {
	l.mu.Lock()
	l.lines = append(l.lines, fmt.Sprintf(format, args...))
	l.mu.Unlock()
}

func (l *logLines) has(sub string) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, s := range l.lines {
		if strings.Contains(s, sub) {
			return true
		}
	}
	return false
}

// TestJoinRecoveringWhenClusterDown pins the cluster-down bootstrap: with
// every member dead there is no adopter, so each stays recovering. A
// restarted s0 joining by name is admitted anyway, comes back up, and its
// failover goroutine stands down; s1's failover then lands on s0 and every
// session answers with its cached decision.
func TestJoinRecoveringWhenClusterDown(t *testing.T) {
	logs := &logLines{}
	rt, rts, fleet := startFleet(t, 2, RouterConfig{
		HeartbeatInterval: 10 * time.Millisecond,
		FailThreshold:     2,
		Logf:              logs.logf,
	})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	client := service.NewClient(rts.URL)
	decisions := planAll(t, client, createSessions(t, client, 18), 1)

	go rt.Run(ctx)
	for _, f := range fleet {
		f.ts.CloseClientConnections()
		f.ts.Close()
	}
	waitState(t, rt, memberRecovering, "s0", "s1")

	freshSrv := service.New(service.Config{ShardMode: true, JournalDir: fleet[0].shard.JournalDir})
	fts := httptest.NewServer(freshSrv.Handler())
	t.Cleanup(fts.Close)
	var jr JoinResult
	var resp *http.Response
	for i := 0; i < 100; i++ { // a confirmation may still be in flight
		resp = postAdminT(t, rts.URL+"/v1/admin/join", map[string]string{
			"name": "s0", "url": fts.URL, "journal_dir": fleet[0].shard.JournalDir,
		}, &jr)
		if resp.StatusCode == http.StatusOK {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("joining recovering s0 with the cluster down answered %d", resp.StatusCode)
	}
	if !jr.Rejoined {
		t.Error("the bootstrap join reported rejoined=false")
	}
	if st := stateOf(rt, "s0"); st != memberUp {
		t.Errorf("after the bootstrap join s0 is %s, want up", st)
	}
	deadline := time.Now().Add(10 * time.Second)
	for !logs.has("failover of s0 stood down") {
		if time.Now().After(deadline) {
			t.Fatal("s0's failover goroutine never stood down")
		}
		time.Sleep(5 * time.Millisecond)
	}
	retryClient := service.NewClient(rts.URL, service.WithRetry(service.DefaultChaosRetry()))
	requireCachedDecisions(t, retryClient, decisions, 1)
}

// gate holds, while armed, every POST a shard receives on path, before the
// shard sees it.
type gate struct {
	path    string
	armed   atomic.Bool
	held    chan string // the router-assigned session ID of each held request
	release chan struct{}
}

func newGate(path string) *gate {
	return &gate{path: path, held: make(chan string), release: make(chan struct{})}
}

func (g *gate) wrap(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost && r.URL.Path == g.path && g.armed.Load() {
			g.held <- r.Header.Get(service.SessionIDHeader)
			<-g.release
		}
		next.ServeHTTP(w, r)
	})
}

// TestTopologyOpsWaitForCreatesInFlight: a create the router placed before a
// drain or join changed placement, but that reaches its shard only after the
// op listed that shard, lands where no rebalance or repair pass looks — on
// the drained member, or off its new ring owner after a join — and its
// session answers 404 from then on. Each op must wait for such creates, both
// those placed before it started and those placed while it rebalanced, so
// the session ends up where the router sends its requests.
func TestTopologyOpsWaitForCreatesInFlight(t *testing.T) {
	for _, tc := range []struct {
		name string
		join bool
		// midOp places the create while the join's first adoption on the
		// newcomer is held, after the op has listed its donors.
		midOp bool
	}{
		{name: "drain"},
		{name: "join", join: true},
		{name: "join, create placed mid-rebalance", join: true, midOp: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			creates, adopts := newGate("/v1/sessions"), newGate("/v1/admin/adopt")
			var fleet []*testShard
			var shards []Shard
			for _, name := range []string{"s0", "s1", "s2"} {
				jdir := filepath.Join(t.TempDir(), name)
				wrap := creates.wrap
				if name == "s2" {
					wrap = adopts.wrap
				}
				srv := service.New(service.Config{ShardMode: true, JournalDir: jdir, Middleware: wrap})
				ts := httptest.NewServer(srv.Handler())
				t.Cleanup(ts.Close)
				sh := Shard{Name: name, URL: ts.URL, JournalDir: jdir}
				fleet = append(fleet, &testShard{shard: sh, srv: srv, ts: ts})
				shards = append(shards, sh)
			}
			newcomer := fleet[2]
			rt, err := NewRouter(RouterConfig{Shards: shards[:2]})
			if err != nil {
				t.Fatal(err)
			}
			rts := httptest.NewServer(rt.Handler())
			t.Cleanup(rts.Close)
			joined, err := NewRing([]string{"s0", "s1", "s2"}, DefaultVNodes)
			if err != nil {
				t.Fatal(err)
			}
			ctx := context.Background()
			client := service.NewClient(rts.URL)
			if tc.midOp {
				// Sessions for the join to move, so it adopts on s2.
				createSessions(t, client, 24)
			}

			opDone := make(chan error, 1)
			startOp := func(owner string) {
				go func() {
					var err error
					if tc.join {
						_, err = Join(ctx, rts.URL, newcomer.shard)
					} else {
						_, err = Drain(ctx, rts.URL, owner)
					}
					opDone <- err
				}()
			}
			if tc.midOp {
				adopts.armed.Store(true)
				startOp("")
				select {
				case <-adopts.held:
				case err := <-opDone:
					t.Fatalf("the join moved nothing to s2: %v", err)
				}
				adopts.armed.Store(false)
			}

			// Hold a create whose placement the op changes: any create for a
			// drain of its owner, one the newcomer will own for a join.
			wf := dagio.Encode(smallWorkflow(3))
			created := make(chan error, 1)
			creates.armed.Store(true)
			var id string
			for {
				go func() {
					_, err := client.CreateSession(ctx, service.CreateSessionRequest{Workflow: wf, Policy: "wire"})
					created <- err
				}()
				select {
				case id = <-creates.held:
				case err := <-created:
					t.Fatalf("create never reached a shard: %v", err)
				}
				if !tc.join || joined.Owner(id) == "s2" {
					break
				}
				creates.release <- struct{}{}
				if err := <-created; err != nil {
					t.Fatal(err)
				}
			}
			creates.armed.Store(false)

			if tc.midOp {
				adopts.release <- struct{}{}
			} else {
				startOp(rt.members.ownerName(id))
			}
			// An op that does not wait for the create is done well within
			// this; one that waits is released by the create landing.
			select {
			case err := <-opDone:
				opDone <- err
			case <-time.After(500 * time.Millisecond):
			}
			creates.release <- struct{}{}
			if err := <-created; err != nil {
				t.Fatal(err)
			}
			if err := <-opDone; err != nil {
				t.Fatal(err)
			}

			want, st := rt.members.resolveSession(id)
			var hosts []string
			for _, s := range fleet {
				if slices.Contains(s.srv.Store().IDs(), id) {
					hosts = append(hosts, s.shard.Name)
				}
			}
			if st != routeOK || len(hosts) != 1 || hosts[0] != want.Name {
				t.Fatalf("session %s is hosted on %v but the router sends its requests to %q", id, hosts, want.Name)
			}
		})
	}
}
