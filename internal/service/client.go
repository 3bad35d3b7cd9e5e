package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/exec"
	"repro/internal/monitor"
	"repro/internal/sim"
)

// PlanSeqHeader carries the per-session plan interval sequence number. A
// retried plan request resends the same value and is answered from the
// session's decision cache, so planning is exactly-once per interval even
// when the network loses responses. Requests without the header fall back to
// server-assigned sequencing (one fresh interval per request).
const PlanSeqHeader = "Wire-Plan-Seq"

// SessionIDHeader carries a router-assigned session ID on a forwarded create
// request. The cluster router draws the ID before forwarding so the session
// lands on the shard its ID consistent-hashes to; a shard in ShardMode
// honors it and treats a duplicate as an idempotent create retry.
const SessionIDHeader = "Wire-Session-Id"

// CodeShardRecovering is the error code a cluster router returns (as a 503
// with Retry-After) while the shard owning the requested session is dead and
// its journals are still being replayed on a surviving peer. Clients should
// back off and retry; the session is not lost.
const CodeShardRecovering = "shard_recovering"

// CodeSessionFenced is the error code a shard returns (as a 503 with
// Retry-After) when the requested session was handed to another shard — by a
// planned migration or by a fencing adoption that caught this shard serving
// stale. Clients should retry through the router, which routes to the new
// owner.
const CodeSessionFenced = "session_fenced"

// CodeTenantThrottled is the error code a daemon returns (as a 429 with
// Retry-After) when a tenant-tagged session create is refused because the
// tenant's budget or active-session cap is exhausted. Pressure releases as
// the tenant's sessions finish; clients should back off and retry.
const CodeTenantThrottled = "tenant_throttled"

// CodeBaseMismatch is the error code a daemon returns (as a 409) when a plan
// body in delta form (monitor.Snapshot.Delta) cannot be applied: the session
// does not hold the snapshot of seq-1 it would be folded into, or the request
// carried no sequence number. Nothing was planned; the client re-posts the
// same seq as a full snapshot, which is always accepted.
const CodeBaseMismatch = "base_mismatch"

// CodeShardPartitioned is the error code a cluster router returns (as a 503
// with Retry-After) while the shard owning the requested session is
// unreachable from the router but confirmed alive through a peer: a network
// partition is suspected, and the router refuses to misroute or fence a live
// writer. Clients should back off and retry; the partition heals or
// escalates to a failover, either way resolving the route.
const CodeShardPartitioned = "shard_partitioned"

// RouterIdentityHeader marks every router→shard request: proxied traffic,
// probes, handoffs and fan-outs alike. Fault-injection harnesses key on it to
// realize one-way partitions against a real-process shard: inbound
// router-tagged requests are dropped while untagged peer relay probes still
// land, so the shard looks dead to the router yet alive to its peers.
const RouterIdentityHeader = "Wire-Router"

// APIError is a non-2xx response decoded from the daemon's error body.
type APIError struct {
	StatusCode int
	Code       string
	Message    string
	// RetryAfter is the server's Retry-After hint, when present (503s from
	// a cluster router during shard failover). The retry loop sleeps at
	// least this long before the next attempt.
	RetryAfter time.Duration
}

// Error implements error.
func (e *APIError) Error() string {
	return fmt.Sprintf("wire-serve: HTTP %d (%s): %s", e.StatusCode, e.Code, e.Message)
}

// RetryPolicy bounds the client's retry loop: exponential backoff with full
// jitter, retrying transport errors, 5xx, and 429 responses. The zero value
// of each field takes the documented default when the policy is enabled via
// WithRetry.
type RetryPolicy struct {
	// MaxAttempts caps total tries per request (default 4).
	MaxAttempts int
	// BaseDelay seeds the exponential backoff (default 50ms): the backoff
	// cap before attempt k is BaseDelay·2^(k-1), and the actual sleep is a
	// uniform draw from [0, cap) — "full jitter".
	BaseDelay time.Duration
	// MaxDelay caps a single backoff sleep (default 2s).
	MaxDelay time.Duration
	// PerAttemptTimeout bounds each individual attempt (default: the
	// client timeout). The caller's context still bounds the whole call.
	PerAttemptTimeout time.Duration
}

// DefaultChaosRetry is the retry policy for riding out injected faults, a
// daemon restart, or a shard failover: persistent, with small delays to keep
// runs fast.
func DefaultChaosRetry() RetryPolicy {
	return RetryPolicy{
		MaxAttempts:       10,
		BaseDelay:         20 * time.Millisecond,
		MaxDelay:          500 * time.Millisecond,
		PerAttemptTimeout: 15 * time.Second,
	}
}

// maxRetryAfter caps how far a server Retry-After hint can stretch one
// backoff sleep. The hint is advisory: a buggy or malicious server must not
// be able to park a client for hours.
const maxRetryAfter = 15 * time.Second

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 4
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = 50 * time.Millisecond
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = 2 * time.Second
	}
	return p
}

// backoff returns the full-jitter sleep before attempt (attempt ≥ 2). The
// arithmetic lives in the shared exec.Backoff helper so the service client,
// the agent's report retry, and the agent reconnect loop all back off the
// same way.
func (p RetryPolicy) backoff(attempt int, u float64) time.Duration {
	return exec.Backoff{Base: p.BaseDelay, Max: p.MaxDelay}.Delay(attempt-2, u)
}

// ClientOption customizes a Client.
type ClientOption func(*Client)

// WithTransport wraps the HTTP transport — how the chaos harness injects
// network faults between client and daemon.
func WithTransport(rt http.RoundTripper) ClientOption {
	return func(c *Client) { c.transport = rt }
}

// WithHTTPClient substitutes the entire http.Client (connection pools,
// redirect policy). Overrides WithTransport and the whole-request timeout.
func WithHTTPClient(hc *http.Client) ClientOption {
	return func(c *Client) { c.hc = hc }
}

// WithRetry enables retries under the policy (zero fields take defaults).
func WithRetry(p RetryPolicy) ClientOption {
	return func(c *Client) { c.retry = p.withDefaults() }
}

// Client talks to a wire-serve daemon. It is safe for concurrent use; the
// load generator shares one client across every session. By default it does
// not retry; see WithRetry.
type Client struct {
	base      string
	hc        *http.Client
	transport http.RoundTripper
	retry     RetryPolicy

	retries atomic.Int64

	jmu    sync.Mutex
	jitter *rand.Rand

	// bases holds, per session this client plans for, a private copy of the
	// task records of the last snapshot the daemon acknowledged — what the
	// next Plan is diffed against. An entry is taken out of the map for the
	// length of a Plan call and put back on the way out.
	bmu   sync.Mutex
	bases map[string]*planBase
}

// planBase is one session's last acknowledged interval.
type planBase struct {
	seq   int64
	tasks []monitor.TaskRecord
	// changed is the delta's record list, reused from plan to plan.
	changed []monitor.TaskRecord
}

// requestTimeout bounds one whole request of a client that WithHTTPClient
// did not build.
const requestTimeout = 60 * time.Second

// NewClient returns a client for a daemon base URL such as
// "http://127.0.0.1:8080".
func NewClient(base string, opts ...ClientOption) *Client {
	c := &Client{
		base:  strings.TrimRight(base, "/"),
		retry: RetryPolicy{MaxAttempts: 1},
		bases: make(map[string]*planBase),
	}
	for _, opt := range opts {
		opt(c)
	}
	if c.hc == nil {
		rt := c.transport
		if rt == nil {
			// One client fronts every concurrent session (the load
			// generator, the chaos harness), all against a single host.
			// http.DefaultTransport keeps only 2 idle connections per
			// host, so anything beyond 2-way concurrency re-dials TCP on
			// nearly every plan round trip; keep enough idle connections
			// for the whole pool instead.
			t := http.DefaultTransport.(*http.Transport).Clone()
			t.MaxIdleConns = 256
			t.MaxIdleConnsPerHost = 256
			rt = t
		}
		c.hc = &http.Client{Timeout: requestTimeout, Transport: rt}
	}
	if c.jitter == nil {
		c.jitter = rand.New(rand.NewSource(time.Now().UnixNano()))
	}
	return c
}

// BaseURL returns the daemon base URL the client was built with.
func (c *Client) BaseURL() string { return c.base }

// Retries returns how many retry attempts (beyond each request's first try)
// the client has issued so far.
func (c *Client) Retries() int64 { return c.retries.Load() }

func (c *Client) jitterU() float64 {
	c.jmu.Lock()
	defer c.jmu.Unlock()
	return c.jitter.Float64()
}

// retryable reports whether a response status is worth retrying: transient
// server trouble and throttling, never client errors.
func retryable(status int) bool {
	return status >= 500 || status == http.StatusTooManyRequests
}

// do sends one JSON request with the client's retry policy. A nil in sends
// no body; a nil out discards the response body. A zero seq omits the
// sequence header.
func (c *Client) do(ctx context.Context, method, path string, seq int64, in, out any) error {
	if ctx == nil {
		ctx = context.Background()
	}
	var body []byte
	if in != nil {
		// Encode into a pooled buffer; body stays valid across retry
		// attempts because the buffer is only recycled when do returns.
		buf := getBuf()
		defer putBuf(buf)
		if snap, ok := in.(*monitor.Snapshot); ok {
			// The plan body is the hot path: append straight into the
			// buffer instead of going through the json.Encoder machinery
			// (which re-validates and copies the custom marshaler's
			// output).
			b, err := monitor.AppendSnapshotJSON(buf.Bytes(), snap)
			if err != nil {
				return fmt.Errorf("wire-serve client: encode %s %s: %w", method, path, err)
			}
			*buf = *bytes.NewBuffer(b)
			body = b
		} else {
			if err := json.NewEncoder(buf).Encode(in); err != nil {
				return fmt.Errorf("wire-serve client: encode %s %s: %w", method, path, err)
			}
			body = buf.Bytes()
		}
	}

	var lastErr error
	for attempt := 1; attempt <= c.retry.MaxAttempts; attempt++ {
		if attempt > 1 {
			c.retries.Add(1)
			sleep := c.retry.backoff(attempt, c.jitterU())
			// A Retry-After hint (shard failover in progress) overrides a
			// shorter backoff: retrying sooner only burns attempts before
			// the surviving peer has claimed the journals.
			var ae *APIError
			if errors.As(lastErr, &ae) && ae.RetryAfter > sleep {
				sleep = ae.RetryAfter
			}
			select {
			case <-time.After(sleep):
			case <-ctx.Done():
				return fmt.Errorf("wire-serve client: %s %s: %w (last attempt: %v)", method, path, ctx.Err(), lastErr)
			}
		}
		retry, err := c.attempt(ctx, method, path, seq, body, in != nil, out)
		if err == nil {
			return nil
		}
		lastErr = err
		if !retry || ctx.Err() != nil {
			return err
		}
	}
	return lastErr
}

// attempt performs one try and reports whether its failure is retryable.
func (c *Client) attempt(ctx context.Context, method, path string, seq int64, body []byte, hasBody bool, out any) (retry bool, err error) {
	actx := ctx
	if c.retry.PerAttemptTimeout > 0 {
		var cancel context.CancelFunc
		actx, cancel = context.WithTimeout(ctx, c.retry.PerAttemptTimeout)
		defer cancel()
	}
	var rd io.Reader
	if hasBody {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(actx, method, c.base+path, rd)
	if err != nil {
		return false, fmt.Errorf("wire-serve client: %w", err)
	}
	if hasBody {
		req.Header.Set("Content-Type", "application/json")
	}
	if seq > 0 {
		req.Header.Set(PlanSeqHeader, strconv.FormatInt(seq, 10))
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		// Transport errors (drops, resets, per-attempt timeouts) are
		// retryable; the parent context expiring is not.
		return ctx.Err() == nil, fmt.Errorf("wire-serve client: %s %s: %w", method, path, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 400 {
		apiErr := &APIError{StatusCode: resp.StatusCode, Code: "unknown"}
		if ra := resp.Header.Get("Retry-After"); ra != "" {
			if secs, perr := strconv.Atoi(ra); perr == nil && secs > 0 {
				hint := time.Duration(secs) * time.Second
				// The hint is a backoff floor, so cap it: a pathological
				// Retry-After must not stall the retry loop for hours.
				apiErr.RetryAfter = min(hint, maxRetryAfter)
			}
		}
		var eb ErrorBody
		if err := json.NewDecoder(resp.Body).Decode(&eb); err == nil {
			apiErr.Code, apiErr.Message = eb.Code, eb.Error
		}
		return retryable(resp.StatusCode), apiErr
	}
	if out == nil {
		_, _ = io.Copy(io.Discard, resp.Body)
		return false, nil
	}
	buf := getBuf()
	defer putBuf(buf)
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		// A response truncated mid-body is a lost response; retry.
		return true, fmt.Errorf("wire-serve client: read %s %s: %w", method, path, err)
	}
	// Targets with a hand-rolled unmarshaler (PlanResponse) are called
	// directly, skipping json.Unmarshal's separate validation pass over
	// the body.
	var uerr error
	if u, ok := out.(json.Unmarshaler); ok {
		uerr = u.UnmarshalJSON(buf.Bytes())
	} else {
		uerr = json.Unmarshal(buf.Bytes(), out)
	}
	if uerr != nil {
		return true, fmt.Errorf("wire-serve client: decode %s %s: %w", method, path, uerr)
	}
	return false, nil
}

// call sends one request through do and decodes a 2xx response as a T.
func call[T any](ctx context.Context, c *Client, method, path string, in any) (*T, error) {
	var out T
	if err := c.do(ctx, method, path, 0, in, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// CreateSession creates a controller session.
func (c *Client) CreateSession(ctx context.Context, req CreateSessionRequest) (*SessionInfo, error) {
	return call[SessionInfo](ctx, c, http.MethodPost, "/v1/sessions", req)
}

// Plan posts one monitoring snapshot and returns the decision. seq is the
// 1-based plan interval number; retried requests resend the same seq and are
// answered from the session's cache (exactly-once planning). A zero seq uses
// legacy server-side sequencing, under which a retry after a lost response
// would plan a fresh interval. The snapshot's Workflow is stripped before
// sending — the session's DAG is authoritative on the server.
//
// What travels is the delta against the previous interval whenever this
// client holds it: Plan keeps a private copy of the task records the daemon
// last acknowledged for the session and, when that is interval seq-1, posts
// only the records that differ (monitor.Snapshot.Delta). Anything else — the
// first plan, a fresh Client mid-session, a gap — posts the snapshot in full,
// which the daemon always accepts. The copy advances only on a 2xx for seq,
// so a retry re-sends the same body, and it is private, so the caller may
// reuse snap as soon as Plan returns. It is dropped by DeleteSession, by a
// 404 and once the snapshot shows every task completed.
func (c *Client) Plan(ctx context.Context, id string, seq int64, snap *monitor.Snapshot) (*PlanResponse, error) {
	lean := *snap
	lean.Workflow = nil
	path := "/v1/sessions/" + id + "/plan"
	base := c.takeBase(id)
	if base == nil {
		base = &planBase{}
	}
	sent := &lean
	if seq > 1 && base.seq == seq-1 && len(base.tasks) == len(snap.Tasks) {
		base.changed = monitor.AppendChanged(base.changed[:0], base.tasks, snap.Tasks)
		delta := lean
		delta.Delta, delta.Tasks = true, base.changed
		sent = &delta
	}
	var resp PlanResponse
	err := c.do(ctx, http.MethodPost, path, seq, sent, &resp)
	var ae *APIError
	if sent.Delta && errors.As(err, &ae) && ae.Code == CodeBaseMismatch {
		// The daemon does not hold seq-1 (it says so before planning
		// anything): the copy is worthless, the interval goes in full.
		base.seq, sent = 0, &lean
		err = c.do(ctx, http.MethodPost, path, seq, sent, &resp)
	}
	if err != nil {
		if base.seq > 0 && !(errors.As(err, &ae) && ae.StatusCode == http.StatusNotFound) {
			c.putBase(id, base) // still the last acknowledged interval
		}
		return nil, err
	}
	if seq > 0 && !snap.Done() {
		if sent.Delta {
			for i := range sent.Tasks {
				base.tasks[sent.Tasks[i].ID] = sent.Tasks[i]
			}
		} else {
			base.tasks = append(base.tasks[:0], snap.Tasks...)
		}
		base.seq = seq
		c.putBase(id, base)
	}
	return &resp, nil
}

func (c *Client) takeBase(id string) *planBase {
	c.bmu.Lock()
	defer c.bmu.Unlock()
	b := c.bases[id]
	delete(c.bases, id)
	return b
}

func (c *Client) putBase(id string, b *planBase) {
	c.bmu.Lock()
	c.bases[id] = b
	c.bmu.Unlock()
}

// State fetches the session's run state.
func (c *Client) State(ctx context.Context, id string) (*SessionStateResponse, error) {
	return call[SessionStateResponse](ctx, c, http.MethodGet, "/v1/sessions/"+id+"/state", nil)
}

// DeleteSession drops the session, and with it the client's copy of its last
// acknowledged snapshot.
func (c *Client) DeleteSession(ctx context.Context, id string) error {
	c.takeBase(id)
	return c.do(ctx, http.MethodDelete, "/v1/sessions/"+id, 0, nil, nil)
}

// Ready fetches the readiness document. A draining daemon answers 503,
// returned as an *APIError.
func (c *Client) Ready(ctx context.Context) (*HealthResponse, error) {
	return call[HealthResponse](ctx, c, http.MethodGet, "/readyz", nil)
}

// MetricsDump fetches the daemon's metrics document.
func (c *Client) MetricsDump(ctx context.Context) (*MetricsDump, error) {
	return call[MetricsDump](ctx, c, http.MethodGet, "/metrics", nil)
}

// RawMetrics fetches the metrics document with each endpoint's raw latency
// window, so a caller merging several daemons recomputes true quantiles.
func (c *Client) RawMetrics(ctx context.Context) (*MetricsDump, error) {
	return call[MetricsDump](ctx, c, http.MethodGet, "/metrics?raw=1", nil)
}

// CreateTenant creates or updates a tenant's budget and session cap.
func (c *Client) CreateTenant(ctx context.Context, spec TenantSpec) (*TenantInfo, error) {
	return call[TenantInfo](ctx, c, http.MethodPost, "/v1/tenants", spec)
}

// Tenants lists every tenant the daemon has seen.
func (c *Client) Tenants(ctx context.Context) ([]TenantInfo, error) {
	resp, err := call[TenantListResponse](ctx, c, http.MethodGet, "/v1/tenants", nil)
	if err != nil {
		return nil, err
	}
	return resp.Tenants, nil
}

// Tenant fetches one tenant's state.
func (c *Client) Tenant(ctx context.Context, name string) (*TenantInfo, error) {
	return call[TenantInfo](ctx, c, http.MethodGet, "/v1/tenants/"+name, nil)
}

// The shard admin API: what a cluster router asks a daemon in ShardMode.

// ListSessions lists the IDs of the sessions the shard hosts.
func (c *Client) ListSessions(ctx context.Context) ([]string, error) {
	resp, err := call[SessionListResponse](ctx, c, http.MethodGet, "/v1/admin/sessions", nil)
	if err != nil {
		return nil, err
	}
	return resp.Sessions, nil
}

// Export detaches sessions from the shard and returns their WAL paths for an
// Adopt elsewhere.
func (c *Client) Export(ctx context.Context, req ExportRequest) (*ExportResponse, error) {
	return call[ExportResponse](ctx, c, http.MethodPost, "/v1/admin/export", req)
}

// Adopt hands the shard journal directories or exported WALs to claim and
// replay.
func (c *Client) Adopt(ctx context.Context, req AdoptRequest) (*AdoptResponse, error) {
	return call[AdoptResponse](ctx, c, http.MethodPost, "/v1/admin/adopt", req)
}

// RelayProbe asks the shard to fetch another daemon's /readyz, at base, over
// the shard's own network path and report whether it answered at all.
func (c *Client) RelayProbe(ctx context.Context, base string) (*ProbeResponse, error) {
	return call[ProbeResponse](ctx, c, http.MethodPost, "/v1/admin/probe", ProbeRequest{URL: strings.TrimRight(base, "/") + "/readyz"})
}

// RemoteController adapts one daemon session to sim.Controller, so the
// in-process simulator can execute a workflow while the planning happens
// over HTTP. It numbers plan intervals so client-level retries stay
// exactly-once. Plan cannot return an error by contract; a transport or API
// failure freezes the pool (empty decision) and is reported by Err after
// the run.
type RemoteController struct {
	client *Client
	info   *SessionInfo
	ctx    context.Context

	// observe, when set, receives each plan round-trip latency.
	observe func(time.Duration)

	seq atomic.Int64

	mu  sync.Mutex
	err error
}

var _ sim.Controller = (*RemoteController)(nil)

// NewRemoteController creates a session on the daemon and wraps it. ctx
// bounds the session's whole lifetime: every plan round trip inherits it.
func NewRemoteController(ctx context.Context, c *Client, req CreateSessionRequest) (*RemoteController, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	info, err := c.CreateSession(ctx, req)
	if err != nil {
		return nil, err
	}
	return &RemoteController{client: c, info: info, ctx: ctx}, nil
}

// SetLatencyObserver registers a per-plan latency callback. Call
// it before the run starts.
func (rc *RemoteController) SetLatencyObserver(fn func(time.Duration)) { rc.observe = fn }

// Session returns the wrapped session's info.
func (rc *RemoteController) Session() SessionInfo { return *rc.info }

// Name implements sim.Controller; it reports the server-side policy so a
// remote run is labelled identically to its in-process twin.
func (rc *RemoteController) Name() string { return rc.info.Policy }

// Plan implements sim.Controller by delegating to the daemon.
func (rc *RemoteController) Plan(snap *monitor.Snapshot) sim.Decision {
	rc.mu.Lock()
	failed := rc.err != nil
	rc.mu.Unlock()
	if failed {
		return sim.Decision{}
	}
	ctx := rc.ctx
	if ctx == nil {
		ctx = context.Background()
	}
	t0 := time.Now()
	resp, err := rc.client.Plan(ctx, rc.info.ID, rc.seq.Add(1), snap)
	if rc.observe != nil {
		rc.observe(time.Since(t0))
	}
	if err != nil {
		rc.mu.Lock()
		if rc.err == nil {
			rc.err = err
		}
		rc.mu.Unlock()
		return sim.Decision{}
	}
	return resp.Decision
}

// Err returns the first plan failure, if any.
func (rc *RemoteController) Err() error {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	return rc.err
}

// Close deletes the remote session.
func (rc *RemoteController) Close() error {
	ctx := rc.ctx
	if ctx == nil || ctx.Err() != nil {
		ctx = context.Background()
	}
	return rc.client.DeleteSession(ctx, rc.info.ID)
}
