package scenario

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/audit"
	"repro/internal/chaos"
	"repro/internal/dag"
	"repro/internal/service"
	"repro/internal/workloads"
)

// TestChaosCertifyKillRestart is the fault-tolerance certificate: sessions
// planned through injected network and cloud faults, the daemon killed
// abruptly mid-run and rebuilt from its journal, and every decision stream
// required byte-identical to a fault-free in-process twin. With -race this
// doubles as the concurrency certificate of the whole fault path.
func TestChaosCertifyKillRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos certificate is slow")
	}
	res, err := Run(context.Background(), Config{
		Sessions:    10,
		Concurrency: 2, // most sessions still to come when the kill lands
		Policy:      "wire",
		// 300s tasks make WIRE scale the pool up, so every session
		// issues elastic launch orders for the cloud faults to hit.
		Workflow: func(seed int64) *dag.Workflow {
			return workloads.Linear(40+int(seed%5), 300)
		},
		Cloud:    testCloud,
		Noise:    0.08,
		SeedBase: 500,
		Chaos: &chaos.Plan{
			Seed:              7,
			DropRequest:       0.05,
			Err5xx:            0.05,
			DropResponse:      0.05,
			DelayProb:         0.5,
			MaxDelay:          25 * time.Millisecond,
			LostOrder:         0.05,
			DuplicateOrder:    0.05,
			DeadOnArrival:     0.05,
			StragglerProb:     0.10,
			MaxStragglerDelay: 60,
		},
		Verify:         true,
		Shards:         1,
		KillAfterPlans: 20,
		Seed:           7,
	})
	if err != nil {
		t.Fatal(err)
	}
	requirePass(t, res)
	if f := res.NetFaults; f.DroppedRequests+f.Injected5xx+f.DroppedResponses == 0 {
		t.Error("no network faults injected; the certificate proved nothing")
	}
	if res.CloudFaults.Lost+res.CloudFaults.Duplicated+res.CloudFaults.DOA == 0 {
		t.Error("no cloud faults injected; the certificate proved nothing")
	}
	if res.Retries == 0 {
		t.Error("no client retries despite injected faults")
	}
}

// TestChaosLoadgenRepeatRunsIdentical pins end-to-end determinism of the
// fault harness: two full chaos runs with the same configuration (no kill —
// timing-free) must report identical fault and session counts.
func TestChaosLoadgenRepeatRunsIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos repeat run is slow")
	}
	run := func() *Result {
		t.Helper()
		res, err := Run(context.Background(), Config{
			Sessions: 6,
			Policy:   "wire",
			Workflow: func(seed int64) *dag.Workflow {
				return workloads.Linear(30+int(seed%3), 300)
			},
			Cloud:    testCloud,
			SeedBase: 900,
			Chaos: &chaos.Plan{
				Seed:           21,
				DropRequest:    0.08,
				Err5xx:         0.08,
				DropResponse:   0.08,
				LostOrder:      0.08,
				DuplicateOrder: 0.08,
				DeadOnArrival:  0.08,
			},
			Verify: true,
			Shards: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	requirePass(t, a)
	if a.NetFaults != b.NetFaults {
		t.Errorf("network fault counts differ across identical runs: %+v != %+v", a.NetFaults, b.NetFaults)
	}
	if a.CloudFaults != b.CloudFaults {
		t.Errorf("cloud fault counts differ across identical runs: %+v != %+v", a.CloudFaults, b.CloudFaults)
	}
	if a.Plans != b.Plans || a.Decisions != b.Decisions {
		t.Errorf("plan counts differ: %d/%d != %d/%d", a.Plans, a.Decisions, b.Plans, b.Decisions)
	}
}

// TestChaosKillWaitsOutInflightHandlers pins what the lone daemon inherits
// from being a fleet member: its kill waits for handlers already running.
// http.Server.Close does not stop them, so a plan held inside the dead
// server's handler would otherwise append to the session's WAL after the
// replacement daemon replayed that file — and the client's retry of the same
// seq would then be planned and journaled a second time.
func TestChaosKillWaitsOutInflightHandlers(t *testing.T) {
	const heldSeq = "3"
	var (
		built    atomic.Int32 // daemons constructed so far
		returned atomic.Bool  // the held handler has returned
		early    atomic.Bool  // the replacement was built before it did
		held     = make(chan struct{})
		release  = make(chan struct{})
	)
	gate := func(next http.Handler) http.Handler {
		first := built.Add(1) == 1
		if !first && !returned.Load() {
			early.Store(true)
		}
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if first && strings.HasSuffix(r.URL.Path, "/plan") && r.Header.Get(service.PlanSeqHeader) == heldSeq {
				close(held)
				<-release
				defer returned.Store(true)
			}
			next.ServeHTTP(w, r)
		})
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	f, err := hostFleet(ctx, &Config{Shards: 1, Server: service.Config{Middleware: gate}}, t.TempDir(), t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	defer f.close()

	cfg := &Config{
		Sessions: 1, Concurrency: 1, TimeCompression: 1, Policy: "wire",
		Workflow: func(seed int64) *dag.Workflow { return workloads.Linear(12, 120) },
		Cloud:    testCloud, SeedBase: 77, Verify: true,
		RetainSessions: true, // the WAL must survive to be read and audited
	}
	arrs, err := cfg.arrivals()
	if err != nil {
		t.Fatal(err)
	}
	res := &Result{cfg: cfg}
	done := make(chan error, 1)
	go func() { done <- runSessions(ctx, cfg, f.client(), arrs, res) }()

	<-held
	go func() {
		// Longer than the daemon stays down: a kill that does not wait has
		// the replacement up and replayed while the handler is still held.
		time.Sleep(downtime + 150*time.Millisecond)
		close(release)
	}()
	if err := f.kill(0, t.Logf); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}

	if built.Load() != 2 {
		t.Fatalf("%d daemons constructed, want the original and one replacement", built.Load())
	}
	if early.Load() {
		t.Error("replacement daemon was constructed while the dead daemon's plan handler was still running")
	}
	requirePass(t, res)

	// The session's recovered state and its WAL agree on the last interval.
	jdir := f.daemons[0].jdir
	wals, _ := filepath.Glob(filepath.Join(jdir, "*.wal"))
	if len(wals) != 1 {
		t.Fatalf("journal dir holds %d WALs, want the one retained session", len(wals))
	}
	b, err := os.ReadFile(wals[0])
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSpace(b), []byte{'\n'})
	var last struct {
		Seq int64 `json:"seq"`
	}
	if err := json.Unmarshal(lines[len(lines)-1], &last); err != nil {
		t.Fatal(err)
	}
	id := strings.TrimSuffix(filepath.Base(wals[0]), ".wal")
	state, err := f.client().State(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if state.Plans != last.Seq || last.Seq != res.Plans {
		t.Errorf("session served %d plans, its WAL ends at seq %d, the client planned %d intervals", state.Plans, last.Seq, res.Plans)
	}
	rep, err := audit.Run(audit.Config{Dirs: []string{jdir}})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() {
		t.Errorf("journal audit: %+v", rep.Violations)
	}
}
