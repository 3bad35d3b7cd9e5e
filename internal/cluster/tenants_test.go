package cluster

import (
	"context"
	"strings"
	"testing"

	"repro/internal/cloud"
	"repro/internal/dagio"
	"repro/internal/service"
	"repro/internal/tenancy"
)

// TestRouterTenantFanout pins the router's tenant surface: POST broadcasts
// the spec to every shard (each enforces its own gate for the sessions it
// hosts), and GETs aggregate the per-shard registries into fleet-wide rows.
func TestRouterTenantFanout(t *testing.T) {
	_, rts, fleet := startFleet(t, 3, RouterConfig{})
	client := service.NewClient(rts.URL)
	ctx := context.Background()

	if _, err := client.CreateTenant(ctx, service.TenantSpec{Name: "acme", MaxActive: 40}); err != nil {
		t.Fatalf("create tenant via router: %v", err)
	}
	for _, f := range fleet {
		info, ok := f.srv.Tenants().Tenant("acme")
		if !ok || info.MaxActive != 40 {
			t.Fatalf("shard %s missed the broadcast: ok=%v info=%+v", f.shard.Name, ok, info)
		}
	}

	// Tenant-tagged sessions spread over the ring; the merged row must sum
	// the per-shard actives and arrivals back to the true totals.
	wf := dagio.Encode(smallWorkflow(3))
	const n = 12
	for i := 0; i < n; i++ {
		if _, err := client.CreateSession(ctx, service.CreateSessionRequest{
			Workflow: wf, Policy: "wire", Tenant: "acme",
		}); err != nil {
			t.Fatalf("create session %d: %v", i, err)
		}
	}
	hosting := 0
	for _, f := range fleet {
		if info, ok := f.srv.Tenants().Tenant("acme"); ok && info.ActiveSessions > 0 {
			hosting++
		}
	}
	if hosting < 2 {
		t.Fatalf("only %d shard(s) host acme sessions; the ring should spread %d sessions wider", hosting, n)
	}
	merged, err := client.Tenant(ctx, "acme")
	if err != nil {
		t.Fatalf("tenant via router: %v", err)
	}
	if merged.ActiveSessions != n || merged.ArrivalsTotal != n {
		t.Fatalf("merged row = %d active / %d arrivals, want %d / %d", merged.ActiveSessions, merged.ArrivalsTotal, n, n)
	}
	if merged.MaxActive != 40 {
		t.Fatalf("merged MaxActive = %d, want the broadcast spec's 40", merged.MaxActive)
	}

	list, err := client.Tenants(ctx)
	if err != nil {
		t.Fatalf("tenant list via router: %v", err)
	}
	if len(list) != 1 || list[0].Name != "acme" || list[0].ActiveSessions != n {
		t.Fatalf("tenant list = %+v, want one acme row with %d active", list, n)
	}

	if _, err := client.Tenant(ctx, "ghost"); err == nil || !strings.Contains(err.Error(), "not_found") {
		t.Fatalf("unknown tenant error = %v, want not_found", err)
	}
}

// TestShardCertifyStream runs the kill-shard cluster certificate under a
// heterogeneous multi-tenant arrival stream instead of the classic fixed-N
// loadgen: Poisson arrivals draw mixed workflows for three budget-capped
// tenants, the router broadcasts the tenant specs, one shard dies abruptly
// mid-run, and every arrival must still complete with a decision stream
// byte-identical to its in-process twin (throttled creates are retried, so
// the stream drops nothing).
func TestShardCertifyStream(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster certificate is slow")
	}
	res, err := ShardCertify(context.Background(), ShardCertConfig{
		Loadgen: service.LoadgenConfig{
			Sessions:    15,
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
		},
		Shards:         3,
		KillAfterPlans: 2,
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
	if res.TenantSpendUnits <= 0 {
		t.Errorf("tenant spend = %v units; the stream's sessions were never metered", res.TenantSpendUnits)
	}
}
