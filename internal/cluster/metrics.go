package cluster

import (
	"encoding/json"
	"net/http"
	"time"

	"repro/internal/service"
)

// RouterCounters are the router's own counters, separate from anything the
// shards report.
type RouterCounters struct {
	ShardsUp              int   `json:"shards_up"`
	FailoversTotal        int64 `json:"failovers_total"`
	HandoffSessionsTotal  int64 `json:"handoff_sessions_total"`
	DrainsTotal           int64 `json:"drains_total"`
	JoinsTotal            int64 `json:"joins_total"`
	MigratedSessionsTotal int64 `json:"migrated_sessions_total"`
	Epoch                 int64 `json:"epoch"`
	ProxiedTotal          int64 `json:"proxied_total"`
	ProxyErrorsTotal      int64 `json:"proxy_errors_total"`
	Recovering503Total    int64 `json:"recovering_503_total"`
	// PartitionsSuspectedTotal counts shards confirmed alive via a peer
	// while unreachable from the router; PartitionsHealedTotal counts
	// partitioned shards restored to up by a direct probe answering again.
	// Partitioned503Total counts requests refused with shard_partitioned.
	PartitionsSuspectedTotal int64 `json:"partitions_suspected_total"`
	PartitionsHealedTotal    int64 `json:"partitions_healed_total"`
	Partitioned503Total      int64 `json:"partitioned_503_total"`
	UptimeS                  int64 `json:"uptime_s"`
}

// ShardStatus is one membership-table row as exposed on /metrics.
type ShardStatus struct {
	URL     string `json:"url"`
	State   string `json:"state"`
	Adopter string `json:"adopter,omitempty"`
	// JournalDirs are the directories this shard currently owns (its own plus
	// adopted ones); empty once handed off.
	JournalDirs []string `json:"journal_dirs,omitempty"`
}

// ClusterMetricsDump is the router's /metrics payload: router counters, the
// membership table, and the fleet-wide aggregate of every live shard's
// MetricsDump (counter sums plus a true latency-sample merge).
type ClusterMetricsDump struct {
	Router  RouterCounters         `json:"router"`
	Shards  map[string]ShardStatus `json:"shards"`
	Cluster service.MetricsDump    `json:"cluster"`
}

// Counters snapshots the router-side counters (certificates, tests).
func (rt *Router) Counters() RouterCounters {
	rt.members.mu.Lock()
	epoch := rt.members.epoch
	rt.members.mu.Unlock()
	return RouterCounters{
		ShardsUp:                 rt.members.shardsUp(),
		FailoversTotal:           rt.members.failovers.Load(),
		HandoffSessionsTotal:     rt.members.handoffSessions.Load(),
		DrainsTotal:              rt.members.drains.Load(),
		JoinsTotal:               rt.members.joins.Load(),
		MigratedSessionsTotal:    rt.members.migrated.Load(),
		Epoch:                    epoch,
		ProxiedTotal:             rt.proxied.Load(),
		ProxyErrorsTotal:         rt.proxyErrors.Load(),
		Recovering503Total:       rt.recovering503.Load(),
		PartitionsSuspectedTotal: rt.members.partitionsSuspected.Load(),
		PartitionsHealedTotal:    rt.members.partitionsHealed.Load(),
		Partitioned503Total:      rt.partitioned503.Load(),
		UptimeS:                  int64(rt.cfg.Clock().Sub(rt.start) / time.Second),
	}
}

func (rt *Router) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(map[string]any{
		"status":    "ok",
		"shards_up": rt.members.shardsUp(),
	})
}

// handleMetrics aggregates the fleet: it fetches every live shard's raw
// metrics (latency windows included, so quantiles are recomputed over the
// merged samples rather than averaged across shards), sums the counters, and
// wraps the result with the router's own counters and the membership table.
// A shard that fails to answer is skipped — the membership table shows which
// rows are missing from the aggregate.
func (rt *Router) handleMetrics(w http.ResponseWriter, r *http.Request) {
	dumps := fanOut(r.Context(), rt.cfg.HeartbeatTimeout, rt.members.servingPeers(), (*service.Client).RawMetrics)
	var agg service.MetricsDump
	first := true
	for _, d := range dumps {
		if d == nil {
			continue
		}
		if first {
			agg, first = *d, false
			continue
		}
		agg.Merge(*d)
	}
	// Raw windows did their job during the merge; keep the wire payload to
	// summaries like the single-node endpoint.
	for name, ep := range agg.Endpoints {
		ep.RawMs = nil
		agg.Endpoints[name] = ep
	}
	// A tenant with sessions on several shards is one active tenant: count the
	// fleet-wide rows, which Merge cannot do from per-shard counts.
	agg.Tenancy.TenantsActive = 0
	for _, info := range mergeTenantLists(rt.tenantLists(r)) {
		if info.ActiveSessions > 0 {
			agg.Tenancy.TenantsActive++
		}
	}

	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(ClusterMetricsDump{
		Router:  rt.Counters(),
		Shards:  rt.members.status(),
		Cluster: agg,
	})
}
