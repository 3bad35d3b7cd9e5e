package scenario

import (
	"context"
	"testing"

	"repro/internal/chaos"
	"repro/internal/cloud"
	"repro/internal/dag"
	"repro/internal/tenancy"
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
	res, err := Run(context.Background(), Config{
		Sessions:    18,
		Concurrency: 3, // most sessions still to come when the kill lands
		Policy:      "wire",
		Workflow: func(seed int64) *dag.Workflow {
			return workloads.Linear(40+int(seed%5), 300)
		},
		Cloud:          testCloud,
		Noise:          0.08,
		SeedBase:       900,
		Verify:         true,
		Shards:         3,
		KillAfterPlans: 10,
		Seed:           11,
		Logf:           t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	requirePass(t, res)
	if res.Router.ShardsUp != 2 {
		t.Errorf("shards_up = %d at end, want 2", res.Router.ShardsUp)
	}
	if res.Retries == 0 {
		t.Error("no client retries despite a mid-run shard kill")
	}
}

// TestShardCertifyNoKill pins the healthy-cluster baseline: the fleet with
// no fault injected must behave exactly like a single daemon — zero
// failures, zero mismatches, zero failovers.
func TestShardCertifyNoKill(t *testing.T) {
	res, err := Run(context.Background(), Config{
		Sessions:    8,
		Concurrency: 4,
		Policy:      "wire",
		Workflow: func(seed int64) *dag.Workflow {
			return workloads.Linear(10, 120)
		},
		Cloud:    testCloud,
		SeedBase: 40,
		Verify:   true,
		Shards:   3,
	})
	if err != nil {
		t.Fatal(err)
	}
	requirePass(t, res)
	if res.Killed || res.Router.FailoversTotal != 0 {
		t.Fatalf("healthy run reported killed=%v failovers=%d", res.Killed, res.Router.FailoversTotal)
	}
	if res.Router.ShardsUp != 3 {
		t.Errorf("shards_up = %d, want 3", res.Router.ShardsUp)
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
	res, err := Run(context.Background(), Config{
		Sessions:    18,
		Concurrency: 3,
		Policy:      "wire",
		Workflow: func(seed int64) *dag.Workflow {
			return workloads.Linear(40+int(seed%5), 300)
		},
		Cloud:          testCloud,
		Noise:          0.08,
		SeedBase:       1200,
		Verify:         true,
		Shards:         3,
		RollingRestart: true,
		Seed:           23,
		Logf:           t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	requirePass(t, res)
}

// TestShardCertifyChurn runs a seeded deterministic churn schedule — kills,
// drains, and joins interleaved at random offsets — against live traffic and
// requires the fleet to heal back to full strength with zero lost sessions
// and byte-identical twins.
func TestShardCertifyChurn(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster certificate is slow")
	}
	res, err := Run(context.Background(), Config{
		Sessions:    18,
		Concurrency: 3,
		Policy:      "wire",
		Workflow: func(seed int64) *dag.Workflow {
			return workloads.Linear(40+int(seed%5), 300)
		},
		Cloud:       testCloud,
		Noise:       0.08,
		SeedBase:    1500,
		Verify:      true,
		Shards:      3,
		ChurnEvents: 6,
		Seed:        7, // interleaves a kill with a join mid-failover
		Logf:        t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	requirePass(t, res)
	if res.ChurnApplied != 6 {
		t.Errorf("applied %d churn events, want 6", res.ChurnApplied)
	}
}

// TestShardCertifyStream runs the kill-shard cluster certificate under a
// heterogeneous multi-tenant arrival stream instead of the classic fixed
// fleet: Poisson arrivals draw mixed workflows for three budget-capped
// tenants, the router broadcasts the tenant specs, one shard dies abruptly
// mid-run, and every arrival must still complete with a decision stream
// byte-identical to its in-process twin (throttled creates are retried, so
// the stream drops nothing).
func TestShardCertifyStream(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster certificate is slow")
	}
	res, err := Run(context.Background(), Config{
		// Thirty, not fewer: the victim must be hosting one of its share of
		// the sessions at a kill-driver tick after serving its seeded plan
		// count, and with 15 the run outpaced the kill about one time in 20.
		Sessions:    30,
		Concurrency: 3, // most sessions still to come when the kill lands
		Policy:      "wire",
		Cloud: cloud.Config{
			SlotsPerInstance: 2,
			LagTime:          180,
			ChargingUnit:     900,
			MaxInstances:     6,
		},
		Noise:              0.05,
		SeedBase:           42,
		Verify:             true,
		Arrivals:           tenancy.Poisson,
		Tenants:            3,
		ArrivalRatePerHour: 60, // ~1 arrival/16ms at this compression: the stream outlives the kill
		TenantMaxActive:    2,
		TimeCompression:    3600,
		StreamKeys:         []string{"tpch6-s", "tpch1-s", "pagerank-s"},
		Shards:             3,
		KillAfterPlans:     2,
		Seed:               11,
		Logf:               t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	requirePass(t, res)
	if res.TenantSpendUnits <= 0 {
		t.Errorf("tenant spend = %v units; the stream's sessions were never metered", res.TenantSpendUnits)
	}
}

// TestShardCertifyPartition is the partition certificate: a 3-shard fleet
// behind a router, hit with one symmetric split, one one-way router→shard
// drop, and one slow link in sequence under live load — each healed before
// the next — after which the fleet must be back at full strength, every
// session completed with its decision stream byte-identical to its
// in-process twin, and the post-run journal audit clean. With -race this is
// the concurrency certificate of the peer-confirmation, fencing, and
// partitioned-503 paths.
func TestShardCertifyPartition(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster certificate is slow")
	}
	res, err := Run(context.Background(), Config{
		// Low concurrency over many sessions stretches the load across
		// the full nemesis schedule, so every event lands under traffic.
		Sessions:    60,
		Concurrency: 2,
		Policy:      "wire",
		Workflow: func(seed int64) *dag.Workflow {
			return workloads.Linear(60+int(seed%5), 300)
		},
		Cloud:    testCloud,
		Noise:    0.08,
		SeedBase: 1300,
		Verify:   true,
		Shards:   3,
		Seed:     23,
		Partition: &PartitionSpec{
			Kinds: []chaos.PartitionKind{chaos.PartitionSplit, chaos.PartitionOneWay, chaos.PartitionSlow},
		},
		Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	requirePass(t, res)
	if res.Audit.Sessions == 0 || res.Audit.Plans == 0 {
		t.Fatalf("audit saw an empty corpus (%d sessions, %d plans) — RetainSessions is not retaining", res.Audit.Sessions, res.Audit.Plans)
	}
	if res.Retries == 0 && res.Router.FailoversTotal == 0 && res.Router.PartitionsSuspectedTotal == 0 {
		// Whether a given event surfaces as client retries, a fenced failover,
		// or a suspected partition depends on which sessions were in flight
		// when it hit; all three zero means the schedule ran against an idle
		// fleet and certified nothing.
		t.Error("no retries, failovers, or suspected partitions despite three partition events")
	}
}

// TestShardCertifyPartitionOneWay pins the partitioned-503 degradation
// contract in isolation: a one-way router→shard cut must be detected as a
// partition (peer confirmation succeeds), answered with shard_partitioned
// rather than a failover, and healed without ever fencing the victim.
func TestShardCertifyPartitionOneWay(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster certificate is slow")
	}
	res, err := Run(context.Background(), Config{
		Sessions:    12,
		Concurrency: 3,
		Policy:      "wire",
		Workflow: func(seed int64) *dag.Workflow {
			return workloads.Linear(45, 300)
		},
		Cloud:    testCloud,
		SeedBase: 1400,
		Verify:   true,
		Shards:   3,
		Seed:     7,
		Partition: &PartitionSpec{
			Kinds: []chaos.PartitionKind{chaos.PartitionOneWay},
		},
		Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	requirePass(t, res)
	if res.Router.PartitionsSuspectedTotal == 0 {
		t.Error("one-way cut never became a suspected partition (peer confirmation path not exercised)")
	}
	if res.Router.PartitionsHealedTotal == 0 {
		t.Error("suspected partition never healed back to up")
	}
	if res.Router.FailoversTotal != 0 {
		t.Errorf("one-way cut triggered %d failover(s); a peer-confirmed-alive shard must not be fenced", res.Router.FailoversTotal)
	}
}

// TestPartitionRejectsTenantCaps pins the config guard: retained sessions
// never release tenant slots, so the partition nemesis refuses to run with
// tenant budgets or active caps rather than hang the stream.
func TestPartitionRejectsTenantCaps(t *testing.T) {
	_, err := Run(context.Background(), Config{
		Sessions:     2,
		Policy:       "wire",
		Workflow:     func(seed int64) *dag.Workflow { return workloads.Linear(5, 60) },
		Cloud:        cloud.Config{SlotsPerInstance: 2, LagTime: 60, ChargingUnit: 300, MaxInstances: 2},
		TenantBudget: 10,
		Shards:       3,
		Partition:    &PartitionSpec{Events: 1},
	})
	if err == nil {
		t.Fatal("partition nemesis accepted a tenant budget despite RetainSessions")
	}
}
