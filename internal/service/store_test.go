package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/baseline"
	"repro/internal/cloud"
	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/monitor"
	"repro/internal/sim"
)

func smallWorkflow(tasks int) *dag.Workflow {
	b := dag.NewBuilder("store-test")
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

// readySnapshot builds a minimal valid first-tick snapshot for wf: every
// task ready, one active instance.
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

// TestStoreConcurrentLifecycle hammers the bare store from 32 goroutines:
// concurrent create, get, plan (via the session mutex), and delete. The
// -race run of this test is the store's data-race certificate.
func TestStoreConcurrentLifecycle(t *testing.T) {
	st := NewStore(0, time.Now)
	wf := smallWorkflow(4)
	const goroutines = 32
	const iters = 20

	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				sess, err := st.Create("wire", wf, core.New(core.Config{}))
				if err != nil {
					errs <- err
					return
				}
				got, err := st.Get(sess.ID)
				if err != nil || got != sess {
					errs <- fmt.Errorf("get %s: %v", sess.ID, err)
					return
				}
				snap := readySnapshot(wf)
				if err := sess.Controller(func(ctrl sim.Controller) error {
					dec := ctrl.Plan(snap)
					if dec.Launch < 0 {
						return fmt.Errorf("negative launch")
					}
					return nil
				}); err != nil {
					errs <- err
					return
				}
				if err := st.Delete(sess.ID); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if n := st.Len(); n != 0 {
		t.Fatalf("store not empty after lifecycle storm: %d sessions", n)
	}
}

// fakeClock is a mutable test clock.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

// TestTTLEvictionFakeClock drives the janitor's eviction sweep with a fake
// clock: untouched sessions die at the TTL, touched ones survive.
func TestTTLEvictionFakeClock(t *testing.T) {
	clock := &fakeClock{now: time.Unix(1_000_000, 0)}
	srv := New(Config{clock: clock.Now})
	wf := smallWorkflow(2)

	var ids []string
	for i := 0; i < 3; i++ {
		sess, err := srv.Store().Create("wire", wf, baseline.PureReactive{})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, sess.ID)
	}

	clock.Advance(idleTTL - time.Minute)
	if n := srv.EvictIdleNow(); n != 0 {
		t.Fatalf("evicted %d sessions before TTL", n)
	}
	// Touch the first session: its idle timer restarts.
	if _, err := srv.Store().Get(ids[0]); err != nil {
		t.Fatal(err)
	}

	clock.Advance(2 * time.Minute) // idleTTL+1m idle for [1] and [2], 2m for [0]
	if n := srv.EvictIdleNow(); n != 2 {
		t.Fatalf("evicted %d sessions at TTL, want 2", n)
	}
	if _, err := srv.Store().Get(ids[0]); err != nil {
		t.Errorf("touched session evicted: %v", err)
	}
	for _, id := range ids[1:] {
		if _, err := srv.Store().Get(id); err == nil {
			t.Errorf("idle session %s survived eviction", id)
		}
	}
	if d := srv.Metrics().Dump(clock.Now(), srv.Store().Len()); d.Sessions.Evicted != 2 {
		t.Errorf("metrics evicted = %d, want 2", d.Sessions.Evicted)
	}
}

// TestMaxSessionsRejection fills the store to its cap over HTTP and checks
// the clear 429 error body.
func TestMaxSessionsRejection(t *testing.T) {
	srv := New(Config{maxSessions: 2})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := NewClient(ts.URL)

	for i := 0; i < 2; i++ {
		if _, err := client.CreateSession(context.Background(), CreateSessionRequest{WorkflowKey: "genome-s"}); err != nil {
			t.Fatalf("create %d: %v", i, err)
		}
	}
	resp, err := http.Post(ts.URL+"/v1/sessions", "application/json",
		strings.NewReader(`{"workflow_key":"genome-s"}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", resp.StatusCode)
	}
	var body ErrorBody
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatalf("decode error body: %v", err)
	}
	if body.Code != "max_sessions" {
		t.Errorf("code = %q, want max_sessions", body.Code)
	}
	if !strings.Contains(body.Error, "session limit 2") {
		t.Errorf("error %q does not name the limit", body.Error)
	}

	// The typed client surfaces the same information.
	_, err = client.CreateSession(context.Background(), CreateSessionRequest{WorkflowKey: "genome-s"})
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.StatusCode != 429 || apiErr.Code != "max_sessions" {
		t.Errorf("client error = %v, want APIError 429/max_sessions", err)
	}

	if d := srv.Metrics().Dump(time.Now(), srv.Store().Len()); d.Sessions.Rejected != 2 {
		t.Errorf("metrics rejected = %d, want 2", d.Sessions.Rejected)
	}
}
