package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/service"
)

// RouterConfig tunes the routing front end.
type RouterConfig struct {
	// Shards is the initial shard map. Required, but no longer immutable:
	// POST /v1/admin/drain and /v1/admin/join reshape the fleet at runtime.
	Shards []Shard

	// HeartbeatInterval is the membership probe period (default 1s).
	HeartbeatInterval time.Duration
	// HeartbeatTimeout bounds one /healthz probe (default: the interval).
	HeartbeatTimeout time.Duration
	// FailThreshold is how many consecutive probe failures (heartbeat misses
	// or proxy transport errors) declare a shard dead (default 3).
	FailThreshold int

	// Client carries every request the router sends a shard: proxied
	// traffic, heartbeats, handoffs and fan-outs (default: a pooled
	// transport sized for the fleet). The router stamps each one with
	// service.RouterIdentityHeader on its way through.
	Client *http.Client
	// Logf receives operational log lines.
	Logf func(format string, args ...any)
}

const (
	// retryAfterSecs is the Retry-After hint, in seconds, on 503
	// shard_recovering and shard_partitioned responses.
	retryAfterSecs = 1
	// adoptTimeout bounds one journal-handoff request to a surviving peer;
	// replay of a big shard takes real time.
	adoptTimeout = 60 * time.Second
)

func (c RouterConfig) withDefaults() RouterConfig {
	if c.HeartbeatInterval <= 0 {
		c.HeartbeatInterval = time.Second
	}
	if c.HeartbeatTimeout <= 0 {
		c.HeartbeatTimeout = c.HeartbeatInterval
	}
	if c.FailThreshold <= 0 {
		c.FailThreshold = 3
	}
	if c.Client == nil {
		t := http.DefaultTransport.(*http.Transport).Clone()
		t.MaxIdleConns = 256
		t.MaxIdleConnsPerHost = 256
		c.Client = &http.Client{Transport: t}
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c
}

// Router is the stateless routing front end: it owns no session state, only
// the membership table (which owns the ring) and counters — everything it
// serves is reconstructed by asking shards. Kill a router and start another
// on the same shard map and nothing is lost.
type Router struct {
	cfg     RouterConfig
	members *membership
	mux     *http.ServeMux
	start   time.Time

	proxied        atomic.Int64
	proxyErrors    atomic.Int64
	recovering503  atomic.Int64
	partitioned503 atomic.Int64
}

// NewRouter builds a router over the initial shard map.
func NewRouter(cfg RouterConfig) (*Router, error) {
	if err := ValidateShards(cfg.Shards); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	next := cfg.Client.Transport
	if next == nil {
		next = http.DefaultTransport
	}
	tagged := *cfg.Client
	tagged.Transport = routerTransport{next}
	cfg.Client = &tagged
	names := make([]string, len(cfg.Shards))
	for i, sh := range cfg.Shards {
		names[i] = sh.Name
	}
	ring, err := NewRing(names, DefaultVNodes)
	if err != nil {
		return nil, err
	}
	rt := &Router{
		cfg:     cfg,
		members: newMembership(cfg, ring, names),
		start:   time.Now(),
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/sessions", rt.handleCreate)
	mux.HandleFunc("/v1/sessions/{id}", rt.handleSession)
	mux.HandleFunc("/v1/sessions/{id}/{verb}", rt.handleSession)
	mux.HandleFunc("POST /v1/tenants", rt.handleTenantCreate)
	mux.HandleFunc("GET /v1/tenants", rt.handleTenantList)
	mux.HandleFunc("GET /v1/tenants/{name}", rt.handleTenantGet)
	mux.HandleFunc("POST /v1/admin/drain", rt.handleDrain)
	mux.HandleFunc("POST /v1/admin/join", rt.handleJoin)
	mux.HandleFunc("GET /healthz", rt.handleHealthz)
	mux.HandleFunc("GET /metrics", rt.handleMetrics)
	rt.mux = mux
	return rt, nil
}

// Handler returns the router's HTTP handler; safe for concurrent use.
func (rt *Router) Handler() http.Handler { return rt.mux }

// Ring exposes the current placement ring (tests, startup logging). Drain
// and join swap it; take a fresh snapshot rather than caching the pointer.
func (rt *Router) Ring() *Ring { return rt.members.currentRing() }

// routeState is one resolution outcome.
type routeState int

const (
	routeOK routeState = iota
	// routeRecovering: the session's current host cannot answer yet — its
	// owning shard is dead with journals not yet replayed on a peer, or the
	// session itself is mid-migration. The caller must answer 503.
	routeRecovering
	// routePartitioned: the owning shard is alive (a peer confirmed it) but
	// unreachable from this router. Proxying would fail and misrouting would
	// split-brain; the caller must answer 503 shard_partitioned and let the
	// client's backoff ride out the link fault.
	routePartitioned
)

// resolve maps a session ID to the shard currently serving it: a migration
// override when one exists, else the ring owner, then across journal
// handoffs (a failed shard's sessions follow its adopter, transitively).
func (rt *Router) resolve(id string) (Shard, routeState) {
	return rt.members.resolveSession(id)
}

func (rt *Router) writeError(w http.ResponseWriter, status int, code, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(service.ErrorBody{Error: fmt.Sprintf(format, args...), Code: code})
}

// writeRecovering is the satellite contract: while a failed shard's journals
// are replaying (or a session is mid-migration), clients get an explicit 503
// + Retry-After + a distinct error code instead of being routed into a
// half-recovered peer.
func (rt *Router) writeRecovering(w http.ResponseWriter, shard string) {
	rt.recovering503.Add(1)
	w.Header().Set("Retry-After", strconv.Itoa(retryAfterSecs))
	rt.writeError(w, http.StatusServiceUnavailable, service.CodeShardRecovering,
		"shard %s is failing over; its sessions are being recovered on a peer", shard)
}

// writePartitioned answers for a shard the router cannot reach but a peer
// confirmed alive: an explicit 503 + Retry-After + shard_partitioned rather
// than misrouting its sessions to a peer that doesn't own them (or fencing a
// live writer). The client retries until the link heals or the suspicion
// escalates to a real failover.
func (rt *Router) writePartitioned(w http.ResponseWriter, shard string) {
	rt.partitioned503.Add(1)
	w.Header().Set("Retry-After", strconv.Itoa(retryAfterSecs))
	rt.writeError(w, http.StatusServiceUnavailable, service.CodeShardPartitioned,
		"shard %s is partitioned from the router but alive; retry until the link heals", shard)
}

// handleCreate places a new session: the router draws the ID so it can
// consistent-hash placement before forwarding, and redraws (bounded) if the
// drawn owner is mid-failover, draining, or joining — new sessions should
// land on fully-up shards rather than wait out a transition they have no
// stake in.
func (rt *Router) handleCreate(w http.ResponseWriter, r *http.Request) {
	// A topology operation waits for this create to land before it lists
	// the shards (see membership.creates).
	rt.members.creates.RLock()
	defer rt.members.creates.RUnlock()
	var (
		id    string
		shard Shard
		state routeState
	)
	state = routeRecovering
	for attempt := 0; attempt < 16; attempt++ {
		var err error
		if id, err = service.NewSessionID(); err != nil {
			rt.writeError(w, http.StatusInternalServerError, "internal", "%v", err)
			return
		}
		if shard, state = rt.members.resolveCreate(id); state == routeOK {
			break
		}
	}
	if state != routeOK {
		rt.writeRecovering(w, rt.members.ownerName(id))
		return
	}
	rt.proxy(w, r, shard, id, "")
}

func (rt *Router) handleSession(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	shard, state := rt.resolve(id)
	switch state {
	case routePartitioned:
		rt.writePartitioned(w, shard.Name)
		return
	case routeOK:
	default:
		rt.writeRecovering(w, rt.members.ownerName(id))
		return
	}
	rt.proxy(w, r, shard, "", id)
}

// drainRequest is the POST /v1/admin/drain body.
type drainRequest struct {
	Shard string `json:"shard"`
}

// joinRequest is the POST /v1/admin/join body.
type joinRequest struct {
	Name       string `json:"name"`
	URL        string `json:"url"`
	JournalDir string `json:"journal_dir"`
}

// Drain asks the router at routerURL to drain the named shard out of the ring
// and returns the router's response body once the drain has committed.
func Drain(ctx context.Context, routerURL, name string) ([]byte, error) {
	return postAdmin(ctx, routerURL+"/v1/admin/drain", drainRequest{Shard: name})
}

// Join asks the router at routerURL to add (or re-add) a shard to the ring
// and returns the router's response body once the join has committed.
func Join(ctx context.Context, routerURL string, sh Shard) ([]byte, error) {
	return postAdmin(ctx, routerURL+"/v1/admin/join", joinRequest{Name: sh.Name, URL: sh.URL, JournalDir: sh.JournalDir})
}

// postAdmin POSTs one JSON body to a router admin endpoint and returns the
// response body, treating any non-200 as an error that carries it.
func postAdmin(ctx context.Context, url string, body any) ([]byte, error) {
	b, err := json.Marshal(body)
	if err != nil {
		return nil, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(b))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	rb, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
	rb = bytes.TrimSpace(rb)
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("HTTP %d: %s", resp.StatusCode, rb)
	}
	return rb, nil
}

// handleDrain gracefully decommissions one shard: its sessions migrate to
// their post-drain owners while it keeps serving, then it leaves the ring.
// The request blocks until the drain commits (or fails retryably).
func (rt *Router) handleDrain(w http.ResponseWriter, r *http.Request) {
	var req drainRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<16)).Decode(&req); err != nil || req.Shard == "" {
		rt.writeError(w, http.StatusBadRequest, "bad_request", `drain wants {"shard": "<name>"}`)
		return
	}
	res, err := rt.members.drain(rt.members.opCtx(), req.Shard)
	if err != nil {
		rt.writeOpError(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(res)
}

// handleJoin adds (or re-adds) a shard to the ring, migrating only the
// minimally-remapped key ranges onto it. Blocks until the join commits.
func (rt *Router) handleJoin(w http.ResponseWriter, r *http.Request) {
	var req joinRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<16)).Decode(&req); err != nil {
		rt.writeError(w, http.StatusBadRequest, "bad_request", `join wants {"name", "url", "journal_dir"}`)
		return
	}
	res, err := rt.members.join(rt.members.opCtx(), Shard{Name: req.Name, URL: req.URL, JournalDir: req.JournalDir})
	if err != nil {
		rt.writeOpError(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(res)
}

func (rt *Router) writeOpError(w http.ResponseWriter, err error) {
	if oe, ok := err.(*opError); ok {
		rt.writeError(w, oe.status, "topology_op_failed", "%s", oe.msg)
		return
	}
	rt.writeError(w, http.StatusInternalServerError, "topology_op_failed", "%v", err)
}

// routerTag is the RouterIdentityHeader value, shared by every request.
var routerTag = []string{"1"}

// routerTransport is the one place the router marks what it sends a shard:
// every request through RouterConfig.Client, proxied or built by a
// service.Client, leaves with RouterIdentityHeader set. It stamps the header
// in place rather than cloning the request — each request reaching it was
// built by the router for this one send (proxy copies the inbound header;
// the service client builds a fresh request per attempt) — so the proxied
// plan path pays no allocation for the tag.
type routerTransport struct{ next http.RoundTripper }

func (t routerTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	req.Header[service.RouterIdentityHeader] = routerTag
	return t.next.RoundTrip(req)
}

// hopHeaders are not forwarded in either direction.
var hopHeaders = []string{"Connection", "Keep-Alive", "Proxy-Connection", "Te", "Trailer", "Transfer-Encoding", "Upgrade"}

// proxy forwards one request to a shard and relays the response verbatim,
// with two exceptions. A transport failure is reported as 502
// shard_unreachable (retryable — the client's backoff rides out the
// failover) and counted as a heartbeat miss, so a busy cluster detects death
// faster than the probe loop alone. And a 404 for a session that an elastic
// operation may still be moving is rewritten into a retryable 503: the
// session isn't gone, it just hasn't landed yet.
func (rt *Router) proxy(w http.ResponseWriter, r *http.Request, shard Shard, assignID, sessionID string) {
	rt.proxied.Add(1)
	req, err := http.NewRequestWithContext(r.Context(), r.Method, shard.URL+r.URL.RequestURI(), r.Body)
	if err != nil {
		rt.writeError(w, http.StatusInternalServerError, "internal", "%v", err)
		return
	}
	req.Header = r.Header.Clone()
	for _, h := range hopHeaders {
		req.Header.Del(h)
	}
	if assignID != "" {
		req.Header.Set(service.SessionIDHeader, assignID)
	}
	resp, err := rt.cfg.Client.Do(req)
	if err != nil {
		rt.proxyErrors.Add(1)
		rt.members.noteFailure(shard.Name)
		rt.writeError(w, http.StatusBadGateway, "shard_unreachable",
			"shard %s: %v", shard.Name, err)
		return
	}
	defer resp.Body.Close()
	if sessionID != "" && resp.StatusCode == http.StatusNotFound {
		if rt.members.shouldRetry404(sessionID, shard.Name) {
			_, _ = io.Copy(io.Discard, resp.Body)
			rt.writeRecovering(w, shard.Name)
			return
		}
		// A firm 404: the session is genuinely gone; any migration
		// override pointing at it is stale.
		rt.members.dropOverride(sessionID)
	}
	if sessionID != "" && r.Method == http.MethodDelete && resp.StatusCode == http.StatusNoContent {
		rt.members.dropOverride(sessionID)
	}
	hdr := w.Header()
	for k, vs := range resp.Header {
		hdr[k] = vs
	}
	for _, h := range hopHeaders {
		hdr.Del(h)
	}
	w.WriteHeader(resp.StatusCode)
	_, _ = io.Copy(w, resp.Body)
}
