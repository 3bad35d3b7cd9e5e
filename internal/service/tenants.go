package service

import (
	"net/http"
	"sort"
	"sync"

	"repro/internal/monitor"
)

// The live-plane tenant gate: sessions carry a tenant identity, and a
// per-daemon registry decides each tenant-tagged create by that tenant's own
// limits alone. A create is refused when the tenant's active-session cap is
// full, or when its projected spend (accrued units plus one per active
// session) would pass its budget with one more session — except that a tenant
// with no active session is always admitted, so a budget throttles but never
// starves. A refused create is answered 429 tenant_throttled with a
// Retry-After hint; nothing is queued and no running session's pool is
// clamped, and the pressure releases as the tenant's sessions finish. Spend is
// metered from the posted monitoring snapshots: every planned interval charges
// the tenant instances x interval seconds against the charging unit.
//
// This is not the rule internal/tenancy's RunStream simulates, and so not the
// rule EXPERIMENTS.md's E10 scores: there one site-wide cap and budget are
// shared by every run, refused arrivals wait in a queue, and the arbiter
// clamps every run's pool each interval.

// TenantSpec is the POST /v1/tenants body: create or update a tenant.
type TenantSpec struct {
	// Name identifies the tenant (same character set as session IDs).
	Name string `json:"name"`
	// BudgetUnits caps the tenant's projected spend in charging units;
	// 0 = unlimited.
	BudgetUnits int `json:"budget_units,omitempty"`
	// MaxActive caps the tenant's concurrently active sessions;
	// 0 = unlimited.
	MaxActive int `json:"max_active,omitempty"`
}

// TenantInfo is one tenant's registry state in API responses.
type TenantInfo struct {
	TenantSpec
	// ActiveSessions is the tenant's current session count.
	ActiveSessions int `json:"active_sessions"`
	// ArrivalsTotal counts admitted session creates.
	ArrivalsTotal int64 `json:"arrivals_total"`
	// ThrottledTotal counts creates refused by budget or session cap.
	ThrottledTotal int64 `json:"throttled_total"`
	// SpendUnits is the accrued spend in charging units (fractional:
	// metered as instance-seconds over the charging unit).
	SpendUnits float64 `json:"spend_units"`
	// DeadlineMisses counts sessions observed past their deadline with
	// work remaining.
	DeadlineMisses int64 `json:"deadline_misses_total"`
}

// TenantListResponse is the GET /v1/tenants body.
type TenantListResponse struct {
	Tenants []TenantInfo `json:"tenants"`
}

// tenantState is one tenant's mutable registry entry.
type tenantState struct {
	spec     TenantSpec
	active   int
	arrivals int64
	throttle int64
	// spendS is accrued instance-seconds across all of the tenant's
	// sessions; spendS/unitS is the spend in charging units.
	spendS float64
	// unitS is the last charging unit observed in the tenant's snapshots
	// (spend is reported in units of it; 0 until the first plan).
	unitS  float64
	misses int64
}

func (t *tenantState) spendUnits() float64 {
	if t.unitS <= 0 {
		return 0
	}
	return t.spendS / t.unitS
}

// committedUnits projects the tenant's spend: accrued units plus one unit per
// active session (an admitted session commits at least its first unit) — the
// same lookahead the simulator-plane accountant uses.
func (t *tenantState) committedUnits() float64 {
	return t.spendUnits() + float64(t.active)
}

// TenantRegistry arbitrates session admissions across tenants. All methods
// are safe for concurrent use.
type TenantRegistry struct {
	mu      sync.Mutex
	tenants map[string]*tenantState
}

// NewTenantRegistry returns an empty registry.
func NewTenantRegistry() *TenantRegistry {
	return &TenantRegistry{tenants: make(map[string]*tenantState)}
}

func (r *TenantRegistry) get(name string) *tenantState {
	t, ok := r.tenants[name]
	if !ok {
		t = &tenantState{spec: TenantSpec{Name: name}}
		r.tenants[name] = t
	}
	return t
}

// Configure creates or updates a tenant's budget and session cap.
func (r *TenantRegistry) Configure(spec TenantSpec) TenantInfo {
	r.mu.Lock()
	defer r.mu.Unlock()
	t := r.get(spec.Name)
	t.spec = spec
	return r.info(t)
}

// Admit decides a tenant-tagged session create. Admission succeeds unless the
// tenant's active-session cap is full or its projected spend has reached its
// budget; the austerity exception always admits a tenant with no active
// sessions, so a budget can throttle but never permanently starve.
func (r *TenantRegistry) Admit(name string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	t := r.get(name)
	throttled := false
	if t.spec.MaxActive > 0 && t.active >= t.spec.MaxActive {
		throttled = true
	}
	if t.spec.BudgetUnits > 0 && t.active > 0 && t.committedUnits()+1 > float64(t.spec.BudgetUnits) {
		throttled = true
	}
	if throttled {
		t.throttle++
		return false
	}
	t.arrivals++
	t.active++
	return true
}

// Reattach re-registers a recovered or adopted session without the admission
// gate: journal replay must never drop sessions the daemon already accepted.
func (r *TenantRegistry) Reattach(name string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	t := r.get(name)
	t.arrivals++
	t.active++
}

// Release returns a tenant slot when a session is deleted, evicted, exported,
// or fenced.
func (r *TenantRegistry) Release(name string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if t, ok := r.tenants[name]; ok && t.active > 0 {
		t.active--
	}
}

// ObservePlan meters one planned interval: the tenant's session held
// instances for intervalS seconds, charged against unitS-second units.
func (r *TenantRegistry) ObservePlan(name string, instances int, intervalS, unitS float64) {
	if instances < 0 || intervalS <= 0 {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	t := r.get(name)
	t.spendS += float64(instances) * intervalS
	if unitS > 0 {
		t.unitS = unitS
	}
}

// RecordMiss counts one session observed past its deadline with work
// remaining.
func (r *TenantRegistry) RecordMiss(name string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.get(name).misses++
}

func (r *TenantRegistry) info(t *tenantState) TenantInfo {
	return TenantInfo{
		TenantSpec:     t.spec,
		ActiveSessions: t.active,
		ArrivalsTotal:  t.arrivals,
		ThrottledTotal: t.throttle,
		SpendUnits:     t.spendUnits(),
		DeadlineMisses: t.misses,
	}
}

// Tenant returns one tenant's state; ok is false when it was never seen.
func (r *TenantRegistry) Tenant(name string) (TenantInfo, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	t, ok := r.tenants[name]
	if !ok {
		return TenantInfo{}, false
	}
	return r.info(t), true
}

// List returns every tenant's state, sorted by name.
func (r *TenantRegistry) List() []TenantInfo {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]TenantInfo, 0, len(r.tenants))
	for _, t := range r.tenants {
		out = append(out, r.info(t))
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Counters aggregates the registry into the /metrics tenancy block. uptimeS
// scales the spend rate.
func (r *TenantRegistry) Counters(uptimeS float64) TenancyCounters {
	r.mu.Lock()
	defer r.mu.Unlock()
	var c TenancyCounters
	spend := 0.0
	for _, t := range r.tenants {
		if t.active > 0 {
			c.TenantsActive++
		}
		c.ArrivalsTotal += t.arrivals
		c.AdmissionsThrottledTotal += t.throttle
		c.DeadlineMissesTotal += t.misses
		spend += t.spendUnits()
	}
	if uptimeS > 0 {
		c.BudgetSpendRate = spend * 3600 / uptimeS
	}
	return c
}

// ValidTenantName bounds tenant names to the session-ID character set so they
// are safe in journals and logs.
func ValidTenantName(name string) bool { return ValidSessionID(name) }

func (s *Server) handleCreateTenant(w http.ResponseWriter, r *http.Request) {
	var spec TenantSpec
	if !s.readJSON(w, r, &spec) {
		return
	}
	if !ValidTenantName(spec.Name) {
		s.writeError(w, http.StatusBadRequest, "bad_request", "invalid tenant name %q", spec.Name)
		return
	}
	if spec.BudgetUnits < 0 || spec.MaxActive < 0 {
		s.writeError(w, http.StatusBadRequest, "bad_request", "budget_units and max_active must be non-negative")
		return
	}
	s.writeJSON(w, http.StatusOK, s.tenants.Configure(spec))
}

func (s *Server) handleListTenants(w http.ResponseWriter, _ *http.Request) {
	s.writeJSON(w, http.StatusOK, TenantListResponse{Tenants: s.tenants.List()})
}

func (s *Server) handleGetTenant(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	info, ok := s.tenants.Tenant(name)
	if !ok {
		s.writeError(w, http.StatusNotFound, "not_found", "tenant %q not found", name)
		return
	}
	s.writeJSON(w, http.StatusOK, info)
}

// sessionTenancy captures the plan-path observations the registry needs,
// taken under the session mutex and applied after it is released.
type sessionTenancy struct {
	tenant    string
	instances int
	intervalS float64
	unitS     float64
	miss      bool
}

// observeTenancy meters one planned interval against the session's tenant and
// detects a deadline pass: a session past its deadline (on the snapshot's run
// clock) with tasks remaining has certainly missed, however it ends. The
// caller must hold sess.mu; the returned record is applied with applyTenancy
// after the mutex is released.
func observeTenancy(sess *Session, snap *monitor.Snapshot) (sessionTenancy, bool) {
	if sess.Tenant == "" {
		return sessionTenancy{}, false
	}
	st := sessionTenancy{
		tenant:    sess.Tenant,
		instances: len(snap.Instances),
		intervalS: float64(snap.Interval),
		unitS:     float64(snap.ChargingUnit),
	}
	if sess.DeadlineS > 0 && !sess.missRecorded && float64(snap.Now) > sess.DeadlineS && snap.RemainingTasks() > 0 {
		sess.missRecorded = true
		st.miss = true
	}
	return st, true
}

func (s *Server) applyTenancy(st sessionTenancy) {
	s.tenants.ObservePlan(st.tenant, st.instances, st.intervalS, st.unitS)
	if st.miss {
		s.tenants.RecordMiss(st.tenant)
	}
}
