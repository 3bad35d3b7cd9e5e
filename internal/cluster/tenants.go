package cluster

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"sort"

	"repro/internal/service"
)

// Tenant routing: the registry is per-shard soft state, so the router
// broadcasts writes and aggregates reads. POST /v1/tenants configures the
// tenant on every live shard (each shard enforces the budget/cap gate for
// the sessions it hosts — the global limit is therefore enforced per shard,
// a deliberately looser bound than the single-daemon gate). GET fans out
// like /metrics and sums the counters, so operators and the stream loadgen
// see fleet-wide arrivals, throttles, spend, and deadline misses.

// handleTenantCreate broadcasts the spec to every up shard and relays one
// successful response. A shard that fails the broadcast simply misses the
// spec (its gate stays unlimited) — the same soft-state contract as a shard
// restart, where specs are re-registered by the operator or loadgen.
func (rt *Router) handleTenantCreate(w http.ResponseWriter, r *http.Request) {
	var spec service.TenantSpec
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<16)).Decode(&spec); err != nil || spec.Name == "" {
		rt.writeError(w, http.StatusBadRequest, "bad_request", `tenant wants {"name", ...}`)
		return
	}
	peers := rt.members.servingPeers()
	if len(peers) == 0 {
		rt.writeError(w, http.StatusServiceUnavailable, "no_shards", "no live shards")
		return
	}
	merged := mergeTenantInfos(fanOut(r.Context(), rt.cfg.HeartbeatTimeout, peers,
		func(c *service.Client, ctx context.Context) (*service.TenantInfo, error) {
			return c.CreateTenant(ctx, spec)
		}))
	if merged == nil {
		rt.writeError(w, http.StatusBadGateway, "broadcast_failed", "no shard accepted the tenant spec")
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(merged)
}

// handleTenantList fans out GET /v1/tenants to every up shard and merges the
// rows by name, summing the counters.
func (rt *Router) handleTenantList(w http.ResponseWriter, r *http.Request) {
	out := service.TenantListResponse{Tenants: mergeTenantLists(rt.tenantLists(r))}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(out)
}

// mergeTenantLists folds the shards' tenant lists into one fleet-wide row per
// tenant, sorted by name.
func mergeTenantLists(lists [][]service.TenantInfo) []service.TenantInfo {
	byName := map[string]*service.TenantInfo{}
	for _, list := range lists {
		for i := range list {
			info := list[i]
			if have := byName[info.Name]; have != nil {
				mergeTenantInto(have, &info)
			} else {
				byName[info.Name] = &info
			}
		}
	}
	out := make([]service.TenantInfo, 0, len(byName))
	for _, info := range byName {
		out = append(out, *info)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// handleTenantGet fans out GET /v1/tenants/{name}; every shard missing the
// tenant yields 404, anything else merges into one fleet-wide row.
func (rt *Router) handleTenantGet(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	merged := mergeTenantInfos(fanOut(r.Context(), rt.cfg.HeartbeatTimeout, rt.members.servingPeers(),
		func(c *service.Client, ctx context.Context) (*service.TenantInfo, error) { return c.Tenant(ctx, name) }))
	if merged == nil {
		rt.writeError(w, http.StatusNotFound, "not_found", "tenant %q not found", name)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(merged)
}

// tenantLists fetches every up shard's tenant list.
func (rt *Router) tenantLists(r *http.Request) [][]service.TenantInfo {
	return fanOut(r.Context(), rt.cfg.HeartbeatTimeout, rt.members.servingPeers(), (*service.Client).Tenants)
}

// mergeTenantInfos folds per-shard rows for one tenant into a fleet-wide
// row; nil when no shard answered with the tenant.
func mergeTenantInfos(infos []*service.TenantInfo) *service.TenantInfo {
	var merged *service.TenantInfo
	for _, info := range infos {
		if info == nil {
			continue
		}
		if merged == nil {
			cp := *info
			merged = &cp
			continue
		}
		mergeTenantInto(merged, info)
	}
	return merged
}

// mergeTenantInto sums src's counters into dst. Specs are broadcast-
// identical in the happy path; if a shard missed the broadcast (restart)
// the stricter non-zero limit wins so the merged row reflects the
// configured gate rather than the unlimited default.
func mergeTenantInto(dst, src *service.TenantInfo) {
	dst.ActiveSessions += src.ActiveSessions
	dst.ArrivalsTotal += src.ArrivalsTotal
	dst.ThrottledTotal += src.ThrottledTotal
	dst.SpendUnits += src.SpendUnits
	dst.DeadlineMisses += src.DeadlineMisses
	if dst.BudgetUnits == 0 || (src.BudgetUnits > 0 && src.BudgetUnits < dst.BudgetUnits) {
		if src.BudgetUnits > 0 {
			dst.BudgetUnits = src.BudgetUnits
		}
	}
	if dst.MaxActive == 0 || (src.MaxActive > 0 && src.MaxActive < dst.MaxActive) {
		if src.MaxActive > 0 {
			dst.MaxActive = src.MaxActive
		}
	}
}
