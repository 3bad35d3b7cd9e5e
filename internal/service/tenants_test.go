package service

import (
	"context"
	"errors"
	"io"
	"net/http"
	"strings"
	"testing"

	"repro/internal/dagio"
	"repro/internal/monitor"
)

// TestTenantRegistryAdmission pins the admission gate: active-session caps,
// budget feedback with the austerity exception, and slot release.
func TestTenantRegistryAdmission(t *testing.T) {
	r := NewTenantRegistry()
	r.Configure(TenantSpec{Name: "acme", MaxActive: 2})
	if !r.Admit("acme") || !r.Admit("acme") {
		t.Fatal("admissions under the cap refused")
	}
	if r.Admit("acme") {
		t.Error("admission beyond MaxActive accepted")
	}
	r.Release("acme")
	if !r.Admit("acme") {
		t.Error("released slot not reusable")
	}
	info, ok := r.Tenant("acme")
	if !ok || info.ActiveSessions != 2 || info.ArrivalsTotal != 3 || info.ThrottledTotal != 1 {
		t.Errorf("tenant state = %+v, want 2 active / 3 arrivals / 1 throttled", info)
	}

	// Budget gate: 10-unit budget, 9.5 units committed by spend+lookahead.
	r.Configure(TenantSpec{Name: "tight", BudgetUnits: 10})
	if !r.Admit("tight") {
		t.Fatal("first admission refused")
	}
	r.ObservePlan("tight", 5, 1530, 900) // 8.5 units spent, 1 active -> 9.5 committed
	if r.Admit("tight") {
		t.Error("admission over budget accepted")
	}
	// Austerity: a tenant with zero active sessions always admits, so a
	// budget throttles but never starves.
	r.Release("tight")
	if !r.Admit("tight") {
		t.Error("austerity admission refused for an idle over-budget tenant")
	}

	// Unknown tenants are implicitly unlimited.
	if !r.Admit("walk-in") {
		t.Error("unconfigured tenant refused")
	}
}

// TestTenantRegistryCounters checks the /metrics aggregation and List order.
func TestTenantRegistryCounters(t *testing.T) {
	r := NewTenantRegistry()
	r.Admit("b")
	r.Admit("a")
	r.Reattach("a")
	r.ObservePlan("a", 4, 900, 900)
	r.RecordMiss("b")
	r.Release("b") // b goes idle

	c := r.Counters(3600)
	if c.TenantsActive != 1 {
		t.Errorf("tenants_active = %d, want 1", c.TenantsActive)
	}
	if c.ArrivalsTotal != 3 {
		t.Errorf("arrivals_total = %d, want 3", c.ArrivalsTotal)
	}
	if c.DeadlineMissesTotal != 1 {
		t.Errorf("deadline_misses_total = %d, want 1", c.DeadlineMissesTotal)
	}
	// 4 units spent over one hour of uptime.
	if c.BudgetSpendRate != 4 {
		t.Errorf("budget_spend_rate = %v, want 4", c.BudgetSpendRate)
	}
	list := r.List()
	if len(list) != 2 || list[0].Name != "a" || list[1].Name != "b" {
		t.Errorf("List() = %+v, want [a b]", list)
	}
}

// TestTenancyMetricsKeys pins the wire names of the tenancy block: dashboards
// and the arrival-sweep harness key on these exact strings.
func TestTenancyMetricsKeys(t *testing.T) {
	_, client := newTestServer(t, Config{})
	resp, err := http.Get(client.BaseURL() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	body := string(b)
	for _, key := range []string{
		"tenancy",
		"tenants_active",
		"arrivals_total",
		"admissions_throttled_total",
		"budget_spend_rate",
		"deadline_misses_total",
	} {
		if !strings.Contains(body, `"`+key+`"`) {
			t.Errorf("metrics dump missing %q: %s", key, body)
		}
	}
}

// TestTenantAPI drives the tenant endpoints and the throttled-create path
// over HTTP: a capped tenant's third session answers 429 tenant_throttled
// with a Retry-After hint, and deleting a session releases the slot.
func TestTenantAPI(t *testing.T) {
	_, client := newTestServer(t, Config{})
	ctx := context.Background()

	info, err := client.CreateTenant(ctx, TenantSpec{Name: "acme", MaxActive: 2, BudgetUnits: 50})
	if err != nil {
		t.Fatal(err)
	}
	if info.Name != "acme" || info.MaxActive != 2 {
		t.Fatalf("tenant info = %+v", info)
	}

	wf := dagio.Encode(fanWorkflow())
	mk := func() (*SessionInfo, error) {
		return client.CreateSession(ctx, CreateSessionRequest{
			Workflow: wf, Tenant: "acme", DeadlineS: 1800,
		})
	}
	s1, err := mk()
	if err != nil {
		t.Fatal(err)
	}
	if s1.Tenant != "acme" {
		t.Errorf("session info tenant = %q, want acme", s1.Tenant)
	}
	if _, err := mk(); err != nil {
		t.Fatal(err)
	}
	_, err = mk()
	var ae *APIError
	if !errors.As(err, &ae) || ae.Code != CodeTenantThrottled || ae.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("third create err = %v, want 429 %s", err, CodeTenantThrottled)
	}
	if ae.RetryAfter <= 0 {
		t.Error("throttled create carries no Retry-After hint")
	}
	if err := client.DeleteSession(ctx, s1.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := mk(); err != nil {
		t.Fatalf("create after release: %v", err)
	}

	tenants, err := client.Tenants(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(tenants) != 1 || tenants[0].ActiveSessions != 2 || tenants[0].ThrottledTotal != 1 {
		t.Fatalf("tenant list = %+v, want acme with 2 active / 1 throttled", tenants)
	}
	if _, err := client.Tenant(ctx, "ghost"); err == nil {
		t.Error("unknown tenant fetch succeeded")
	}
	if _, err := client.CreateTenant(ctx, TenantSpec{Name: "no spaces!"}); err == nil {
		t.Error("invalid tenant name accepted")
	}
	if _, err := client.CreateSession(ctx, CreateSessionRequest{Workflow: wf, Tenant: "bad name"}); err == nil {
		t.Error("invalid session tenant accepted")
	}
	dump, err := client.MetricsDump(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if dump.Tenancy.ArrivalsTotal != 3 || dump.Tenancy.AdmissionsThrottledTotal != 1 {
		t.Errorf("tenancy counters = %+v, want 3 arrivals / 1 throttled", dump.Tenancy)
	}
	if dump.Tenancy.TenantsActive != 1 {
		t.Errorf("tenants_active = %d, want 1", dump.Tenancy.TenantsActive)
	}
}

// TestObserveTenancyMiss pins the plan-path deadline detection: a snapshot
// past the deadline with work remaining records exactly one miss.
func TestObserveTenancyMiss(t *testing.T) {
	sess := &Session{Tenant: "acme", DeadlineS: 100}
	snap := &monitor.Snapshot{
		Now: 90, Interval: 30, ChargingUnit: 900,
		Instances: []monitor.InstanceRecord{{}, {}},
		Tasks:     []monitor.TaskRecord{{State: monitor.Running}},
	}
	st, ok := observeTenancy(sess, snap)
	if !ok || st.miss {
		t.Fatalf("before deadline: ok=%v miss=%v", ok, st.miss)
	}
	if st.instances != 2 || st.intervalS != 30 || st.unitS != 900 {
		t.Errorf("metering = %+v", st)
	}
	snap.Now = 130
	if st, _ = observeTenancy(sess, snap); !st.miss {
		t.Error("past deadline with work remaining: no miss recorded")
	}
	// The latch: a second late snapshot must not double count.
	if st, _ = observeTenancy(sess, snap); st.miss {
		t.Error("miss recorded twice")
	}
	// Completed work past the deadline is not a miss.
	late := &Session{Tenant: "acme", DeadlineS: 100}
	snap2 := &monitor.Snapshot{
		Now: 130, Interval: 30, ChargingUnit: 900,
		Tasks: []monitor.TaskRecord{{State: monitor.Completed}},
	}
	if st, _ := observeTenancy(late, snap2); st.miss {
		t.Error("completed run counted as a miss")
	}
	// Untenanted sessions are not metered.
	if _, ok := observeTenancy(&Session{}, snap); ok {
		t.Error("untenanted session metered")
	}
}

// TestTenantJournalRecovery: a restarted daemon must reattach recovered
// sessions to their tenants — the slot counts again, without passing the
// admission gate.
func TestTenantJournalRecovery(t *testing.T) {
	dir := t.TempDir()
	srv1, client := newTestServer(t, Config{JournalDir: dir})
	ctx := context.Background()
	if _, err := client.CreateTenant(ctx, TenantSpec{Name: "acme", MaxActive: 1}); err != nil {
		t.Fatal(err)
	}
	wf := dagio.Encode(fanWorkflow())
	if _, err := client.CreateSession(ctx, CreateSessionRequest{Workflow: wf, Tenant: "acme", DeadlineS: 900}); err != nil {
		t.Fatal(err)
	}
	if n := srv1.Store().Len(); n != 1 {
		t.Fatalf("store has %d sessions", n)
	}

	srv2 := New(Config{JournalDir: dir})
	if n := srv2.Store().Len(); n != 1 {
		t.Fatalf("recovered store has %d sessions, want 1", n)
	}
	info, ok := srv2.tenants.Tenant("acme")
	if !ok || info.ActiveSessions != 1 {
		t.Fatalf("recovered tenant = %+v (ok=%v), want 1 active session", info, ok)
	}
	// MaxActive is not journaled (tenants are re-registered by the operator
	// or loadgen), but the recovered session still holds its slot.
	for _, id := range srv2.Store().IDs() {
		sess, err := srv2.Store().Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if sess.TenantTag() != "acme" || sess.DeadlineS != 900 {
			t.Errorf("recovered session tenant/deadline = %q/%v, want acme/900", sess.TenantTag(), sess.DeadlineS)
		}
	}
}
