package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"sort"
	"sync"

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
	body, err := io.ReadAll(io.LimitReader(r.Body, 1<<16))
	if err != nil {
		rt.writeError(w, http.StatusBadRequest, "bad_request", "read body: %v", err)
		return
	}
	var spec service.TenantSpec
	if err := json.Unmarshal(body, &spec); err != nil || spec.Name == "" {
		rt.writeError(w, http.StatusBadRequest, "bad_request", `tenant wants {"name", ...}`)
		return
	}
	shards := rt.members.upShards()
	if len(shards) == 0 {
		rt.writeError(w, http.StatusServiceUnavailable, "no_shards", "no live shards")
		return
	}
	oks := make([]*service.TenantInfo, len(shards))
	var wg sync.WaitGroup
	for i, sh := range shards {
		wg.Add(1)
		go func(i int, sh Shard) {
			defer wg.Done()
			oks[i] = rt.postShardTenant(r, sh, body)
		}(i, sh)
	}
	wg.Wait()
	merged := mergeTenantInfos(oks)
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
	out := service.TenantListResponse{Tenants: mergeTenantLists(rt.fetchTenantLists(r))}
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
	shards := rt.members.upShards()
	infos := make([]*service.TenantInfo, len(shards))
	var wg sync.WaitGroup
	for i, sh := range shards {
		wg.Add(1)
		go func(i int, sh Shard) {
			defer wg.Done()
			infos[i] = rt.getShardTenant(r, sh, "/v1/tenants/"+name)
		}(i, sh)
	}
	wg.Wait()
	merged := mergeTenantInfos(infos)
	if merged == nil {
		rt.writeError(w, http.StatusNotFound, "not_found", "tenant %q not found", name)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(merged)
}

func (rt *Router) fetchTenantLists(r *http.Request) [][]service.TenantInfo {
	shards := rt.members.upShards()
	dumps := make([][]service.TenantInfo, len(shards))
	var wg sync.WaitGroup
	for i, sh := range shards {
		wg.Add(1)
		go func(i int, sh Shard) {
			defer wg.Done()
			var resp service.TenantListResponse
			if rt.shardJSON(r, sh, http.MethodGet, "/v1/tenants", nil, &resp) {
				dumps[i] = resp.Tenants
			}
		}(i, sh)
	}
	wg.Wait()
	return dumps
}

func (rt *Router) postShardTenant(r *http.Request, sh Shard, body []byte) *service.TenantInfo {
	var info service.TenantInfo
	if !rt.shardJSON(r, sh, http.MethodPost, "/v1/tenants", body, &info) {
		return nil
	}
	return &info
}

func (rt *Router) getShardTenant(r *http.Request, sh Shard, path string) *service.TenantInfo {
	var info service.TenantInfo
	if !rt.shardJSON(r, sh, http.MethodGet, path, nil, &info) {
		return nil
	}
	return &info
}

// shardJSON issues one JSON request against a shard under the heartbeat
// timeout and decodes a 2xx response into out; any failure reports false.
func (rt *Router) shardJSON(r *http.Request, sh Shard, method, path string, body []byte, out any) bool {
	fctx, cancel := context.WithTimeout(r.Context(), rt.cfg.HeartbeatTimeout)
	defer cancel()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(fctx, method, sh.URL+path, rd)
	if err != nil {
		return false
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := rt.cfg.Client.Do(req)
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		_, _ = io.Copy(io.Discard, resp.Body)
		return false
	}
	return json.NewDecoder(resp.Body).Decode(out) == nil
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
