package cluster

import (
	"context"
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"repro/internal/dagio"
	"repro/internal/service"
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

// TestRouterMetricsCountTenantsOnce: a tenant active on two shards is one
// active tenant on the router's /metrics, not one per shard.
func TestRouterMetricsCountTenantsOnce(t *testing.T) {
	_, rts, fleet := startFleet(t, 2, RouterConfig{})
	wf := dagio.Encode(smallWorkflow(3))
	for _, f := range fleet {
		if _, err := service.NewClient(f.ts.URL).CreateSession(context.Background(), service.CreateSessionRequest{
			Workflow: wf, Policy: "wire", Tenant: "t0",
		}); err != nil {
			t.Fatalf("create session on %s: %v", f.shard.Name, err)
		}
		if info, ok := f.srv.Tenants().Tenant("t0"); !ok || info.ActiveSessions != 1 {
			t.Fatalf("shard %s: t0 = %+v (ok=%v), want one active session", f.shard.Name, info, ok)
		}
	}
	resp, err := http.Get(rts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var dump ClusterMetricsDump
	if err := json.NewDecoder(resp.Body).Decode(&dump); err != nil {
		t.Fatal(err)
	}
	if got := dump.Cluster.Tenancy.TenantsActive; got != 1 {
		t.Fatalf("router tenants_active = %d, want 1 (one tenant, active on two shards)", got)
	}
	if got := dump.Cluster.Tenancy.ArrivalsTotal; got != 2 {
		t.Fatalf("router arrivals_total = %d, want 2 (counters still sum)", got)
	}
}
