package service

import (
	"context"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/dag"
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
	plan := &chaos.Plan{
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
	}
	res, err := ChaosCertify(context.Background(), ChaosCertConfig{
		Loadgen: LoadgenConfig{
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
			Chaos:    plan,
			Verify:   true,
		},
		KillAfterPlans: 20,
		Downtime:       50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed != 0 || res.Completed != res.Sessions {
		t.Fatalf("completed %d / failed %d of %d: %v", res.Completed, res.Failed, res.Sessions, res.Errors)
	}
	if res.Mismatched != 0 {
		t.Fatalf("%d decision streams diverged from fault-free twins: %v", res.Mismatched, res.Errors)
	}
	if res.NetFaults.Total() == 0 {
		t.Error("no network faults injected; the certificate proved nothing")
	}
	if res.CloudFaults.Lost+res.CloudFaults.Duplicated+res.CloudFaults.DOA == 0 {
		t.Error("no cloud faults injected; the certificate proved nothing")
	}
	if res.Retries == 0 {
		t.Error("no client retries despite injected faults")
	}
	if !res.Killed {
		t.Fatal("run outpaced the kill; the crash-recovery path was not exercised")
	}
	if res.JournalReplays == 0 {
		t.Error("daemon restarted without replaying any session journal")
	}
}

// TestChaosLoadgenRepeatRunsIdentical pins end-to-end determinism of the
// fault harness: two full chaos loadgen runs with the same configuration
// (no kill — timing-free) must report identical fault and session counts.
func TestChaosLoadgenRepeatRunsIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos repeat run is slow")
	}
	plan := &chaos.Plan{
		Seed:           21,
		DropRequest:    0.08,
		Err5xx:         0.08,
		DropResponse:   0.08,
		LostOrder:      0.08,
		DuplicateOrder: 0.08,
		DeadOnArrival:  0.08,
	}
	run := func() *ChaosCertResult {
		t.Helper()
		res, err := ChaosCertify(context.Background(), ChaosCertConfig{
			Loadgen: LoadgenConfig{
				Sessions: 6,
				Policy:   "wire",
				Workflow: func(seed int64) *dag.Workflow {
					return workloads.Linear(30+int(seed%3), 300)
				},
				Cloud:    testCloud,
				SeedBase: 900,
				Chaos:    plan,
				Verify:   true,
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Failed != 0 || a.Mismatched != 0 {
		t.Fatalf("first run failed/mismatched %d/%d: %v", a.Failed, a.Mismatched, a.Errors)
	}
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
