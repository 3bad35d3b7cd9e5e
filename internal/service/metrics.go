package service

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/exec"
	"repro/internal/stats"
)

// latWindow bounds the per-endpoint latency reservoir: quantiles reflect the
// most recent samples so a long-lived daemon's report stays current.
const latWindow = 4096

// Metrics aggregates the daemon's operational counters. All methods are safe
// for concurrent use. Counters are atomics and the latency rings take one
// lock per endpoint, so requests to different endpoints never contend and
// plan-path instrumentation stays off the global-lock profile (the original
// implementation serialized every request on a single mutex).
type Metrics struct {
	start time.Time

	sessionsCreated  atomic.Int64
	sessionsDeleted  atomic.Int64
	sessionsEvicted  atomic.Int64
	sessionsRejected atomic.Int64

	planRetries      atomic.Int64
	degradedPlans    atomic.Int64
	journalReplays   atomic.Int64
	replayFailures   atomic.Int64
	replayBytes      atomic.Int64
	replayNanos      atomic.Int64
	sessionsAdopted  atomic.Int64
	sessionsExported atomic.Int64
	fencedRejects    atomic.Int64
	encodeErrors     atomic.Int64

	// endpoints maps endpoint name → *endpointMetrics. It stops growing
	// after every endpoint has been hit once, which is sync.Map's ideal
	// case: steady-state lookups are plain atomic loads with no shared
	// write, so Observe calls on different endpoints never touch a common
	// cache line.
	endpoints sync.Map
}

type endpointMetrics struct {
	count  atomic.Int64
	errors atomic.Int64

	// mu guards the latency ring below.
	mu sync.Mutex
	// lat is a ring of the last latWindow request durations in ms.
	lat  []float64
	next int
	full bool
}

// NewMetrics returns zeroed metrics with the uptime clock started.
func NewMetrics(now time.Time) *Metrics {
	return &Metrics{start: now}
}

// SessionCreated / SessionDeleted / SessionsEvicted / SessionRejected bump
// the lifecycle counters.
func (m *Metrics) SessionCreated() { m.sessionsCreated.Add(1) }

// SessionDeleted counts an explicit DELETE.
func (m *Metrics) SessionDeleted() { m.sessionsDeleted.Add(1) }

// SessionsEvicted counts janitor TTL evictions.
func (m *Metrics) SessionsEvicted(n int) {
	if n != 0 {
		m.sessionsEvicted.Add(int64(n))
	}
}

// SessionRejected counts creates refused at the capacity cap.
func (m *Metrics) SessionRejected() { m.sessionsRejected.Add(1) }

// PlanRetried counts plan requests answered from the exactly-once seq cache:
// each one is a client retry the daemon deduplicated.
func (m *Metrics) PlanRetried() { m.planRetries.Add(1) }

// PlanDegraded counts decisions served by a session's fallback policy after
// its controller panicked.
func (m *Metrics) PlanDegraded() { m.degradedPlans.Add(1) }

// JournalReplayed counts sessions rebuilt from their write-ahead logs: at
// startup, on adoption, on a drain's target.
func (m *Metrics) JournalReplayed() { m.journalReplays.Add(1) }

// JournalReplayRead adds one WAL replay's n bytes and duration d — at
// startup, on adoption or on a drain's target, whatever its outcome — so that
// replay throughput can be read from outside the process.
func (m *Metrics) JournalReplayRead(n int64, d time.Duration) {
	m.replayBytes.Add(n)
	m.replayNanos.Add(int64(d))
}

// JournalReplayFailed counts write-ahead logs that could not be replayed into
// a session (at startup or on adoption): unreadable, malformed, or holding a
// delta record without the interval it is a delta against.
func (m *Metrics) JournalReplayFailed() { m.replayFailures.Add(1) }

// SessionsAdopted counts sessions resurrected from a dead peer's journal
// directory via the cluster handoff endpoint.
func (m *Metrics) SessionsAdopted(n int) {
	if n != 0 {
		m.sessionsAdopted.Add(int64(n))
	}
}

// SessionsExported counts sessions detached and handed to a peer via the
// planned-migration export endpoint.
func (m *Metrics) SessionsExported(n int) {
	if n != 0 {
		m.sessionsExported.Add(int64(n))
	}
}

// SessionFenced counts plan decisions withheld because a peer adopted the
// session at a higher epoch while this shard was planning it.
func (m *Metrics) SessionFenced() { m.fencedRejects.Add(1) }

// EncodeError counts responses whose JSON encoding failed (served as 500
// encode_failed instead of a truncated 200).
func (m *Metrics) EncodeError() { m.encodeErrors.Add(1) }

// endpoint returns the per-endpoint state, creating it on first use.
func (m *Metrics) endpoint(name string) *endpointMetrics {
	if v, ok := m.endpoints.Load(name); ok {
		return v.(*endpointMetrics)
	}
	v, _ := m.endpoints.LoadOrStore(name, &endpointMetrics{lat: make([]float64, 0, 64)})
	return v.(*endpointMetrics)
}

// Observe records one request against an endpoint label.
func (m *Metrics) Observe(endpoint string, d time.Duration, isError bool) {
	em := m.endpoint(endpoint)
	em.count.Add(1)
	if isError {
		em.errors.Add(1)
	}
	ms := float64(d) / float64(time.Millisecond)
	em.mu.Lock()
	if len(em.lat) < latWindow && !em.full {
		em.lat = append(em.lat, ms)
		em.mu.Unlock()
		return
	}
	em.full = true
	em.lat[em.next] = ms
	em.next = (em.next + 1) % latWindow
	em.mu.Unlock()
}

// Served returns how many requests an endpoint has answered. The kill
// certificates trigger on plans served, not on a timer.
func (m *Metrics) Served(endpoint string) int64 {
	return m.endpoint(endpoint).count.Load()
}

// LatencySummary reports quantiles over a latency sample, in milliseconds.
type LatencySummary struct {
	Samples int     `json:"samples"`
	P50     float64 `json:"p50"`
	P90     float64 `json:"p90"`
	P99     float64 `json:"p99"`
	Max     float64 `json:"max"`
}

// SummarizeLatencies computes the quantile summary of a millisecond sample.
func SummarizeLatencies(ms []float64) LatencySummary {
	s := LatencySummary{Samples: len(ms)}
	s.P50, _ = stats.Quantile(ms, 0.50)
	s.P90, _ = stats.Quantile(ms, 0.90)
	s.P99, _ = stats.Quantile(ms, 0.99)
	s.Max, _ = stats.Max(ms)
	return s
}

// SessionCounters is the sessions block of the metrics document.
type SessionCounters struct {
	Active   int   `json:"active"`
	Created  int64 `json:"created"`
	Deleted  int64 `json:"deleted"`
	Evicted  int64 `json:"evicted"`
	Rejected int64 `json:"rejected"`
}

// EndpointCounters is one endpoint's block of the metrics document.
type EndpointCounters struct {
	Count     int64           `json:"count"`
	Errors    int64           `json:"errors,omitempty"`
	LatencyMs *LatencySummary `json:"latency_ms,omitempty"`
	// RawMs is the endpoint's raw latency window (most recent samples, ms).
	// Present only when the dump was taken with raw samples enabled
	// (GET /metrics?raw=1): the cluster router merges the windows of every
	// shard sample-by-sample before summarizing, which no quantile merge of
	// the per-shard summaries could reproduce.
	RawMs []float64 `json:"latency_raw_ms,omitempty"`
}

// FaultToleranceCounters is the fault-tolerance block of the metrics
// document.
type FaultToleranceCounters struct {
	// RetriesTotal counts plan requests answered from the exactly-once
	// sequence cache (deduplicated client retries).
	RetriesTotal int64 `json:"retries_total"`
	// DegradedPlansTotal counts fallback decisions after controller panics.
	DegradedPlansTotal int64 `json:"degraded_plans_total"`
	// JournalReplaysTotal counts sessions rebuilt from WALs at startup.
	JournalReplaysTotal int64 `json:"journal_replays_total"`
	// JournalReplayFailuresTotal counts WALs that could not be replayed into
	// a session; each one is a session this daemon does not serve.
	JournalReplayFailuresTotal int64 `json:"journal_replay_failures_total,omitempty"`
	// JournalReplayBytesTotal and JournalReplaySecondsTotal sum every WAL
	// replay (startup, adoption, drains): the bytes replayed, up to the end
	// of each WAL's last accepted record, and the time it took. Their ratio is
	// the replay throughput.
	JournalReplayBytesTotal   int64   `json:"journal_replay_bytes_total"`
	JournalReplaySecondsTotal float64 `json:"journal_replay_seconds_total"`
	// SessionsAdoptedTotal counts sessions resurrected from a dead peer's
	// journal directory via the cluster handoff endpoint.
	SessionsAdoptedTotal int64 `json:"sessions_adopted_total,omitempty"`
	// SessionsExportedTotal counts sessions handed to peers via the
	// planned-migration export endpoint (drain/join rebalancing).
	SessionsExportedTotal int64 `json:"sessions_exported_total,omitempty"`
	// FencedRejectsTotal counts plan decisions withheld because the session
	// was adopted by a peer at a higher fencing epoch mid-plan.
	FencedRejectsTotal int64 `json:"fenced_rejects_total,omitempty"`
	// SessionsAwaitingReplay is a gauge: sessions claimed (at startup or by
	// an adoption) whose WAL replay has not ended. Requests for them wait.
	SessionsAwaitingReplay int `json:"sessions_awaiting_replay"`
}

// TenancyCounters is the tenancy block of the metrics document: the
// multi-tenant admission and budget view aggregated over every tenant the
// daemon has seen.
type TenancyCounters struct {
	// TenantsActive counts tenants with at least one active session.
	TenantsActive int `json:"tenants_active"`
	// ArrivalsTotal counts admitted tenant-tagged session creates.
	ArrivalsTotal int64 `json:"arrivals_total"`
	// AdmissionsThrottledTotal counts creates refused by a tenant budget or
	// active-session cap (answered 429 tenant_throttled).
	AdmissionsThrottledTotal int64 `json:"admissions_throttled_total"`
	// BudgetSpendRate is the aggregate metered spend in charging units per
	// hour of daemon uptime.
	BudgetSpendRate float64 `json:"budget_spend_rate"`
	// DeadlineMissesTotal counts sessions observed past their deadline with
	// work remaining.
	DeadlineMissesTotal int64 `json:"deadline_misses_total"`
}

// MetricsDump is the GET /metrics response body.
type MetricsDump struct {
	UptimeS        float64                `json:"uptime_s"`
	Sessions       SessionCounters        `json:"sessions"`
	FaultTolerance FaultToleranceCounters `json:"fault_tolerance"`
	// Tenancy aggregates the multi-tenant admission view (see TenancyCounters).
	Tenancy TenancyCounters `json:"tenancy"`
	// EncodeErrorsTotal counts responses that failed JSON encoding and were
	// served as 500 encode_failed.
	EncodeErrorsTotal int64 `json:"encode_errors_total"`
	// Live aggregates the live execution plane (agents, leases, reclaims);
	// present only when the server hosts a live-run registry.
	Live      *exec.RegistryMetrics       `json:"live,omitempty"`
	Endpoints map[string]EndpointCounters `json:"endpoints"`
}

// Dump snapshots the counters. activeSessions is supplied by the caller
// (the store owns that gauge).
func (m *Metrics) Dump(now time.Time, activeSessions int) MetricsDump {
	return m.dump(now, activeSessions, false)
}

// DumpRaw is Dump with each endpoint's raw latency window included — the
// form the cluster router aggregates across shards.
func (m *Metrics) DumpRaw(now time.Time, activeSessions int) MetricsDump {
	return m.dump(now, activeSessions, true)
}

func (m *Metrics) dump(now time.Time, activeSessions int, raw bool) MetricsDump {
	d := MetricsDump{
		UptimeS: now.Sub(m.start).Seconds(),
		Sessions: SessionCounters{
			Active:   activeSessions,
			Created:  m.sessionsCreated.Load(),
			Deleted:  m.sessionsDeleted.Load(),
			Evicted:  m.sessionsEvicted.Load(),
			Rejected: m.sessionsRejected.Load(),
		},
		FaultTolerance: FaultToleranceCounters{
			RetriesTotal:               m.planRetries.Load(),
			DegradedPlansTotal:         m.degradedPlans.Load(),
			JournalReplaysTotal:        m.journalReplays.Load(),
			JournalReplayFailuresTotal: m.replayFailures.Load(),
			JournalReplayBytesTotal:    m.replayBytes.Load(),
			JournalReplaySecondsTotal:  time.Duration(m.replayNanos.Load()).Seconds(),
			SessionsAdoptedTotal:       m.sessionsAdopted.Load(),
			SessionsExportedTotal:      m.sessionsExported.Load(),
			FencedRejectsTotal:         m.fencedRejects.Load(),
		},
		EncodeErrorsTotal: m.encodeErrors.Load(),
	}
	d.Endpoints = make(map[string]EndpointCounters)
	m.endpoints.Range(func(name, v any) bool {
		em := v.(*endpointMetrics)
		ec := EndpointCounters{Count: em.count.Load(), Errors: em.errors.Load()}
		em.mu.Lock()
		if len(em.lat) > 0 {
			sum := SummarizeLatencies(em.lat)
			ec.LatencyMs = &sum
			if raw {
				ec.RawMs = append([]float64(nil), em.lat...)
			}
		}
		em.mu.Unlock()
		d.Endpoints[name.(string)] = ec
		return true
	})
	return d
}

// Merge folds another daemon's metrics dump into this one: counters sum,
// endpoint raw latency windows concatenate and are re-summarized, and uptime
// takes the maximum. The cluster router uses it to present one logical
// /metrics document over a shard fleet. The Live block is not merged (the
// live execution plane is not routed through the cluster front end), nor is
// Tenancy.TenantsActive: a distinct count does not sum across daemons that
// share tenants, so the caller derives it from the merged tenant rows.
func (d *MetricsDump) Merge(o MetricsDump) {
	if o.UptimeS > d.UptimeS {
		d.UptimeS = o.UptimeS
	}
	d.Sessions.Active += o.Sessions.Active
	d.Sessions.Created += o.Sessions.Created
	d.Sessions.Deleted += o.Sessions.Deleted
	d.Sessions.Evicted += o.Sessions.Evicted
	d.Sessions.Rejected += o.Sessions.Rejected
	d.FaultTolerance.RetriesTotal += o.FaultTolerance.RetriesTotal
	d.FaultTolerance.DegradedPlansTotal += o.FaultTolerance.DegradedPlansTotal
	d.FaultTolerance.JournalReplaysTotal += o.FaultTolerance.JournalReplaysTotal
	d.FaultTolerance.JournalReplayFailuresTotal += o.FaultTolerance.JournalReplayFailuresTotal
	d.FaultTolerance.JournalReplayBytesTotal += o.FaultTolerance.JournalReplayBytesTotal
	d.FaultTolerance.JournalReplaySecondsTotal += o.FaultTolerance.JournalReplaySecondsTotal
	d.FaultTolerance.SessionsAdoptedTotal += o.FaultTolerance.SessionsAdoptedTotal
	d.FaultTolerance.SessionsExportedTotal += o.FaultTolerance.SessionsExportedTotal
	d.FaultTolerance.FencedRejectsTotal += o.FaultTolerance.FencedRejectsTotal
	d.FaultTolerance.SessionsAwaitingReplay += o.FaultTolerance.SessionsAwaitingReplay
	d.Tenancy.ArrivalsTotal += o.Tenancy.ArrivalsTotal
	d.Tenancy.AdmissionsThrottledTotal += o.Tenancy.AdmissionsThrottledTotal
	d.Tenancy.BudgetSpendRate += o.Tenancy.BudgetSpendRate
	d.Tenancy.DeadlineMissesTotal += o.Tenancy.DeadlineMissesTotal
	d.EncodeErrorsTotal += o.EncodeErrorsTotal
	if d.Endpoints == nil {
		d.Endpoints = make(map[string]EndpointCounters)
	}
	for name, oc := range o.Endpoints {
		ec := d.Endpoints[name]
		ec.Count += oc.Count
		ec.Errors += oc.Errors
		ec.RawMs = append(ec.RawMs, oc.RawMs...)
		if len(ec.RawMs) > 0 {
			sum := SummarizeLatencies(ec.RawMs)
			ec.LatencyMs = &sum
		} else if ec.LatencyMs == nil {
			ec.LatencyMs = oc.LatencyMs
		}
		d.Endpoints[name] = ec
	}
}
