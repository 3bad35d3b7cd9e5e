package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/cloud"
	"repro/internal/dag"
	"repro/internal/dagio"
	"repro/internal/monitor"
	"repro/internal/service"
)

func smallWorkflow(tasks int) *dag.Workflow {
	b := dag.NewBuilder("cluster-test")
	b.AddStage("only")
	for i := 0; i < tasks; i++ {
		b.AddTask(0, "", 30, 1, 4)
	}
	wf, err := b.Build()
	if err != nil {
		panic(err)
	}
	return wf
}

// readySnapshot builds a minimal valid first-tick snapshot for wf.
func readySnapshot(wf *dag.Workflow) *monitor.Snapshot {
	snap := &monitor.Snapshot{
		Now:              60,
		Interval:         60,
		ChargingUnit:     300,
		LagTime:          60,
		SlotsPerInstance: 2,
		MaxInstances:     8,
		Workflow:         wf,
		Tasks:            make([]monitor.TaskRecord, wf.NumTasks()),
		Instances: []monitor.InstanceRecord{
			{ID: 0, State: cloud.Active, Slots: 2, ActiveAt: 0, TimeToNextCharge: 240},
		},
	}
	for _, t := range wf.Tasks {
		snap.Tasks[t.ID] = monitor.TaskRecord{
			ID: t.ID, Stage: t.Stage, State: monitor.Ready, InputSize: t.InputSize,
		}
	}
	return snap
}

type testShard struct {
	shard Shard
	srv   *service.Server
	ts    *httptest.Server
}

// startFleet hosts n shard daemons and a router over them, all torn down
// with the test.
func startFleet(t *testing.T, n int, rcfg RouterConfig) (*Router, *httptest.Server, []*testShard) {
	t.Helper()
	fleet := make([]*testShard, n)
	rcfg.Shards = make([]Shard, n)
	for i := range fleet {
		name := "s" + string(rune('0'+i))
		jdir := filepath.Join(t.TempDir(), name)
		srv := service.New(service.Config{ShardMode: true, JournalDir: jdir})
		ts := httptest.NewServer(srv.Handler())
		t.Cleanup(ts.Close)
		sh := Shard{Name: name, URL: ts.URL, JournalDir: jdir}
		fleet[i] = &testShard{shard: sh, srv: srv, ts: ts}
		rcfg.Shards[i] = sh
	}
	rt, err := NewRouter(rcfg)
	if err != nil {
		t.Fatal(err)
	}
	rts := httptest.NewServer(rt.Handler())
	t.Cleanup(rts.Close)
	return rt, rts, fleet
}

func createSessions(t *testing.T, client *service.Client, n int) []string {
	t.Helper()
	wf := dagio.Encode(smallWorkflow(3))
	ids := make([]string, n)
	for i := range ids {
		info, err := client.CreateSession(context.Background(), service.CreateSessionRequest{
			Workflow: wf,
			Policy:   "wire",
		})
		if err != nil {
			t.Fatalf("create %d: %v", i, err)
		}
		ids[i] = info.ID
	}
	return ids
}

// TestRouterPlacement pins that every session lands on its ring owner, that
// requests for it are routed there, and that an exactly-once retry through
// the router returns the cached decision.
func TestRouterPlacement(t *testing.T) {
	rt, rts, fleet := startFleet(t, 3, RouterConfig{})
	client := service.NewClient(rts.URL)
	ids := createSessions(t, client, 24)

	byShard := map[string]int{}
	for _, id := range ids {
		byShard[rt.Ring().Owner(id)]++
	}
	for _, f := range fleet {
		if got, want := f.srv.Store().Len(), byShard[f.shard.Name]; got != want {
			t.Errorf("shard %s holds %d sessions, ring assigns it %d", f.shard.Name, got, want)
		}
	}

	// State and delete route through the ring.
	if _, err := client.State(context.Background(), ids[0]); err != nil {
		t.Fatalf("state via router: %v", err)
	}

	// Exactly-once via the proxy: the same Wire-Plan-Seq twice yields the
	// identical decision without re-planning.
	snap := readySnapshot(smallWorkflow(3))
	first, err := client.Plan(context.Background(), ids[0], 1, snap)
	if err != nil {
		t.Fatal(err)
	}
	again, err := client.Plan(context.Background(), ids[0], 1, snap)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := json.Marshal(first.Decision)
	b, _ := json.Marshal(again.Decision)
	if string(a) != string(b) {
		t.Fatalf("retried seq returned a different decision: %s != %s", a, b)
	}

	if err := client.DeleteSession(context.Background(), ids[0]); err != nil {
		t.Fatalf("delete via router: %v", err)
	}
	if _, err := client.State(context.Background(), ids[0]); err == nil {
		t.Fatal("deleted session still answers")
	}
}

// TestRouterRecovering503 pins the satellite contract: requests for a shard
// that is declared dead but not yet handed off answer 503 with a Retry-After
// hint and the distinct shard_recovering code, and new sessions keep landing
// on live shards.
func TestRouterRecovering503(t *testing.T) {
	rt, rts, fleet := startFleet(t, 3, RouterConfig{})
	client := service.NewClient(rts.URL)
	ids := createSessions(t, client, 12)

	down := fleet[0].shard.Name
	rt.members.mu.Lock()
	rt.members.members[down].state = memberRecovering
	rt.members.mu.Unlock()

	var onDead string
	for _, id := range ids {
		if rt.Ring().Owner(id) == down {
			onDead = id
			break
		}
	}
	if onDead == "" {
		t.Skipf("no session landed on %s", down)
	}

	resp, err := http.Get(rts.URL + "/v1/sessions/" + onDead)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("recovering shard answered %d, want 503", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != strconv.Itoa(retryAfterSecs) {
		t.Errorf("Retry-After = %q, want %d", ra, retryAfterSecs)
	}
	var eb service.ErrorBody
	if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil {
		t.Fatal(err)
	}
	if eb.Code != service.CodeShardRecovering {
		t.Errorf("error code %q, want %q", eb.Code, service.CodeShardRecovering)
	}

	// The retrying client surfaces the hint.
	one := service.NewClient(rts.URL, service.WithRetry(service.RetryPolicy{MaxAttempts: 1}))
	_, err = one.State(context.Background(), onDead)
	var ae *service.APIError
	if !errors.As(err, &ae) || ae.RetryAfter != retryAfterSecs*time.Second {
		t.Errorf("client did not parse Retry-After: %v", err)
	}

	// Creates redraw away from the recovering shard.
	more := createSessions(t, client, 8)
	for _, id := range more {
		if rt.Ring().Owner(id) == down {
			t.Errorf("new session %s placed on recovering shard %s", id, down)
		}
	}
	if rt.Counters().Recovering503Total == 0 {
		t.Error("recovering_503_total not counted")
	}
}

// TestRouterFailover is the handoff test: kill a shard's listener, let the
// heartbeat loop declare it dead, and require every one of its sessions to
// answer again from the adopter — with its exactly-once cache intact.
func TestRouterFailover(t *testing.T) {
	rt, rts, fleet := startFleet(t, 3, RouterConfig{
		HeartbeatInterval: 10 * time.Millisecond,
		FailThreshold:     2,
	})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	client := service.NewClient(rts.URL)
	ids := createSessions(t, client, 18)

	// Seed every session's exactly-once cache with one planned decision.
	snap := readySnapshot(smallWorkflow(3))
	firstDecisions := make(map[string]string, len(ids))
	for _, id := range ids {
		pr, err := client.Plan(context.Background(), id, 1, snap)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := json.Marshal(pr.Decision)
		firstDecisions[id] = string(b)
	}

	// Pick a victim that owns at least one session.
	victim := -1
	for i, f := range fleet {
		if f.srv.Store().Len() > 0 {
			victim = i
			break
		}
	}
	if victim == -1 {
		t.Fatal("no shard owns a session")
	}
	victimName := fleet[victim].shard.Name
	victimSessions := fleet[victim].srv.Store().Len()

	go rt.Run(ctx)
	fleet[victim].ts.CloseClientConnections()
	fleet[victim].ts.Close()

	deadline := time.Now().Add(5 * time.Second)
	for rt.Counters().HandoffSessionsTotal == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	c := rt.Counters()
	if c.FailoversTotal == 0 {
		t.Fatal("router never declared the dead shard")
	}
	if got := c.HandoffSessionsTotal; got != int64(victimSessions) {
		t.Errorf("handed off %d sessions, victim held %d", got, victimSessions)
	}
	if c.ShardsUp != 2 {
		t.Errorf("shards_up = %d, want 2", c.ShardsUp)
	}

	// Every session answers again, and a replayed seq returns the decision
	// the dead shard already released.
	retryClient := service.NewClient(rts.URL, service.WithRetry(service.DefaultChaosRetry()))
	for _, id := range ids {
		if _, err := retryClient.State(context.Background(), id); err != nil {
			t.Fatalf("session %s lost in failover: %v", id, err)
		}
		pr, err := retryClient.Plan(context.Background(), id, 1, snap)
		if err != nil {
			t.Fatalf("session %s: replayed plan: %v", id, err)
		}
		b, _ := json.Marshal(pr.Decision)
		if string(b) != firstDecisions[id] {
			t.Fatalf("session %s: decision changed across failover: %s != %s", id, b, firstDecisions[id])
		}
	}

	// The routing override points the victim's sessions at the adopter.
	sh, state := rt.members.follow(victimName)
	if state != routeOK || sh.Name == victimName {
		t.Errorf("victim routes to %s (state %v), want a live adopter", sh.Name, state)
	}

	// Aggregated metrics reflect the new topology.
	resp, err := http.Get(rts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var dump ClusterMetricsDump
	if err := json.NewDecoder(resp.Body).Decode(&dump); err != nil {
		t.Fatal(err)
	}
	if dump.Router.ShardsUp != 2 || dump.Router.FailoversTotal != c.FailoversTotal {
		t.Errorf("metrics router counters %+v disagree with Counters() %+v", dump.Router, c)
	}
	if st := dump.Shards[victimName]; st.State != "failed" || st.Adopter == "" {
		t.Errorf("victim status %+v, want failed with an adopter", st)
	}
	var planCount int64
	for name, ep := range dump.Cluster.Endpoints {
		if len(ep.RawMs) != 0 {
			t.Errorf("endpoint %s: raw latency window leaked into aggregated output", name)
		}
		if strings.Contains(name, "plan") {
			planCount += ep.Count
		}
	}
	if planCount < int64(len(ids)) {
		t.Errorf("aggregated plan count %d < %d sessions planned", planCount, len(ids))
	}
}
