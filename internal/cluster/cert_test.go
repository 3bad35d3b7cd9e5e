package cluster

import (
	"context"
	"testing"

	"repro/internal/cloud"
	"repro/internal/dag"
	"repro/internal/service"
	"repro/internal/workloads"
)

// TestShardCertifyKill is the cluster certificate: a 3-shard fleet behind a
// router, one shard killed abruptly mid-run, and every session required to
// finish with a decision stream byte-identical to its in-process twin —
// sessions on the victim only survive if the journal handoff resurrected
// them with their exactly-once cache intact. With -race this doubles as the
// concurrency certificate of the router, membership, and adoption paths.
func TestShardCertifyKill(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster certificate is slow")
	}
	res, err := ShardCertify(context.Background(), ShardCertConfig{
		Loadgen: service.LoadgenConfig{
			Sessions:    18,
			Concurrency: 3, // most sessions still to come when the kill lands
			Policy:      "wire",
			Workflow: func(seed int64) *dag.Workflow {
				return workloads.Linear(40+int(seed%5), 300)
			},
			Cloud: cloud.Config{
				SlotsPerInstance: 2,
				LagTime:          60,
				ChargingUnit:     300,
				MaxInstances:     6,
			},
			Noise:    0.08,
			SeedBase: 900,
			Verify:   true,
		},
		Shards:         3,
		KillAfterPlans: 10,
		Seed:           11,
		Logf:           t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Killed {
		t.Fatal("run outpaced the kill; the failover path was not exercised")
	}
	if res.Failed != 0 || res.Completed != res.Sessions {
		t.Fatalf("completed %d / failed %d of %d: %v", res.Completed, res.Failed, res.Sessions, res.Errors)
	}
	if res.Mismatched != 0 {
		t.Fatalf("%d decision streams diverged from in-process twins: %v", res.Mismatched, res.Errors)
	}
	if res.Failovers == 0 {
		t.Fatalf("shard %s was killed but the router never failed it over", res.Victim)
	}
	if res.ShardsUp != 2 {
		t.Errorf("shards_up = %d at end, want 2", res.ShardsUp)
	}
	if res.Retries == 0 {
		t.Error("no client retries despite a mid-run shard kill")
	}
}

// TestShardCertifyNoKill pins the healthy-cluster baseline: the fleet with
// no fault injected must behave exactly like a single daemon — zero
// failures, zero mismatches, zero failovers.
func TestShardCertifyNoKill(t *testing.T) {
	res, err := ShardCertify(context.Background(), ShardCertConfig{
		Loadgen: service.LoadgenConfig{
			Sessions:    8,
			Concurrency: 4,
			Policy:      "wire",
			Workflow: func(seed int64) *dag.Workflow {
				return workloads.Linear(10, 120)
			},
			Cloud: cloud.Config{
				SlotsPerInstance: 2,
				LagTime:          60,
				ChargingUnit:     300,
				MaxInstances:     6,
			},
			SeedBase: 40,
			Verify:   true,
		},
		Shards: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Killed || res.Failovers != 0 {
		t.Fatalf("healthy run reported killed=%v failovers=%d", res.Killed, res.Failovers)
	}
	if res.Failed != 0 || res.Mismatched != 0 {
		t.Fatalf("failed %d mismatched %d: %v", res.Failed, res.Mismatched, res.Errors)
	}
	if res.ShardsUp != 3 {
		t.Errorf("shards_up = %d, want 3", res.ShardsUp)
	}
}

// TestShardCertifyRollingRestart is the elastic certificate: every shard in
// turn is drained, restarted as a fresh process on the same journal
// directory, and rejoined by name — all under live traffic. Zero sessions may
// drop and every decision stream must stay byte-identical to its in-process
// twin. With -race this certifies the drain/join/migrate paths end to end.
func TestShardCertifyRollingRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster certificate is slow")
	}
	res, err := ShardCertify(context.Background(), ShardCertConfig{
		Loadgen: service.LoadgenConfig{
			Sessions:    18,
			Concurrency: 3,
			Policy:      "wire",
			Workflow: func(seed int64) *dag.Workflow {
				return workloads.Linear(40+int(seed%5), 300)
			},
			Cloud: cloud.Config{
				SlotsPerInstance: 2,
				LagTime:          60,
				ChargingUnit:     300,
				MaxInstances:     6,
			},
			Noise:    0.08,
			SeedBase: 1200,
			Verify:   true,
		},
		Shards:         3,
		RollingRestart: true,
		Seed:           23,
		Logf:           t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed != 0 || res.Completed != res.Sessions {
		t.Fatalf("completed %d / failed %d of %d: %v", res.Completed, res.Failed, res.Sessions, res.Errors)
	}
	if res.Mismatched != 0 {
		t.Fatalf("%d decision streams diverged from in-process twins: %v", res.Mismatched, res.Errors)
	}
	if len(res.Restarted) != 3 {
		t.Fatalf("rolled %d shards %v, want all 3", len(res.Restarted), res.Restarted)
	}
	if res.Drains < 3 || res.Joins < 3 {
		t.Errorf("drains=%d joins=%d, want at least 3 of each", res.Drains, res.Joins)
	}
	if res.ShardsUp != 3 {
		t.Errorf("shards_up = %d at end, want the full fleet back", res.ShardsUp)
	}
}

// TestShardCertifyChurn runs a seeded deterministic churn schedule — kills,
// drains, and joins interleaved at random offsets — against live traffic and
// requires the fleet to heal back to full strength with zero lost sessions
// and byte-identical twins.
func TestShardCertifyChurn(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster certificate is slow")
	}
	res, err := ShardCertify(context.Background(), ShardCertConfig{
		Loadgen: service.LoadgenConfig{
			Sessions:    18,
			Concurrency: 3,
			Policy:      "wire",
			Workflow: func(seed int64) *dag.Workflow {
				return workloads.Linear(40+int(seed%5), 300)
			},
			Cloud: cloud.Config{
				SlotsPerInstance: 2,
				LagTime:          60,
				ChargingUnit:     300,
				MaxInstances:     6,
			},
			Noise:    0.08,
			SeedBase: 1500,
			Verify:   true,
		},
		Shards:      3,
		ChurnEvents: 6,
		Seed:        7, // interleaves a kill with a join mid-failover
		Logf:        t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed != 0 || res.Completed != res.Sessions {
		t.Fatalf("completed %d / failed %d of %d: %v", res.Completed, res.Failed, res.Sessions, res.Errors)
	}
	if res.Mismatched != 0 {
		t.Fatalf("%d decision streams diverged from in-process twins: %v", res.Mismatched, res.Errors)
	}
	if res.ChurnApplied != 6 {
		t.Errorf("applied %d churn events, want 6", res.ChurnApplied)
	}
	if res.ShardsUp != 3 {
		t.Errorf("shards_up = %d at end, want the fleet healed to 3", res.ShardsUp)
	}
}
