package cluster

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/service"
)

// relayHeader marks the GETs a shard relays for the router's peer
// confirmation, so the recorder can tell them from the router's own traffic.
const relayHeader = "Test-Relay"

// requestLog records the routes of every request that reached a shard.
type requestLog struct {
	mu       sync.Mutex
	seen     map[string]bool
	untagged map[string]bool
	relays   int
	bad      []string
}

func (l *requestLog) middleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		tagged := r.Header.Get(service.RouterIdentityHeader) != ""
		route := r.Method + " " + routeOf(r)
		l.mu.Lock()
		if r.Header.Get(relayHeader) != "" {
			l.relays++
			if tagged {
				l.bad = append(l.bad, "relayed "+route+" carries "+service.RouterIdentityHeader)
			}
		} else {
			l.seen[route] = true
			if !tagged {
				l.untagged[route] = true
			}
		}
		l.mu.Unlock()
		next.ServeHTTP(w, r)
	})
}

// routeOf is the request's path with session IDs and tenant names elided,
// plus its query.
func routeOf(r *http.Request) string {
	parts := strings.Split(r.URL.Path, "/")
	if len(parts) > 3 && parts[1] == "v1" && (parts[2] == "sessions" || parts[2] == "tenants") {
		parts[3] = "{" + parts[2] + "}"
	}
	route := strings.Join(parts, "/")
	if r.URL.RawQuery != "" {
		route += "?" + r.URL.RawQuery
	}
	return route
}

// markRelay tags the requests a shard's ProbeClient sends.
type markRelay struct{}

func (markRelay) RoundTrip(req *http.Request) (*http.Response, error) {
	req = req.Clone(req.Context())
	req.Header.Set(relayHeader, "1")
	return http.DefaultTransport.RoundTrip(req)
}

// cutLink fails every request to one host while set: a one-way cut of the
// router→shard link that the shards' own links do not share.
type cutLink struct{ host atomic.Value }

func (c *cutLink) RoundTrip(req *http.Request) (*http.Response, error) {
	if h, _ := c.host.Load().(string); h != "" && h == req.URL.Host {
		return nil, errors.New("link cut")
	}
	return http.DefaultTransport.RoundTrip(req)
}

// TestEveryRouterRequestIsTagged drives a router through each way it talks
// to a shard — probes, proxied session traffic, tenant create/list/get,
// /metrics, a partition's peer confirmation, a drain, a join and a death
// failover — with a recorder in front of every shard. Every request the
// router sent must carry RouterIdentityHeader; the GETs a peer relays for
// the router must not, or a one-way cut keyed on the header would drop them
// too and the partitioned shard would be failed over.
func TestEveryRouterRequestIsTagged(t *testing.T) {
	log := &requestLog{seen: map[string]bool{}, untagged: map[string]bool{}}
	newShard := func(name string) *testShard {
		jdir := filepath.Join(t.TempDir(), name)
		srv := service.New(service.Config{
			ShardMode:   true,
			JournalDir:  jdir,
			ProbeClient: &http.Client{Transport: markRelay{}},
			Middleware:  log.middleware,
		})
		ts := httptest.NewServer(srv.Handler())
		t.Cleanup(ts.Close)
		return &testShard{shard: Shard{Name: name, URL: ts.URL, JournalDir: jdir}, srv: srv, ts: ts}
	}
	fleet := []*testShard{newShard("s0"), newShard("s1"), newShard("s2")}
	cut := &cutLink{}
	rt, err := NewRouter(RouterConfig{
		Shards:            []Shard{fleet[0].shard, fleet[1].shard, fleet[2].shard},
		HeartbeatInterval: 10 * time.Millisecond,
		FailThreshold:     2,
		Client:            &http.Client{Transport: cut},
	})
	if err != nil {
		t.Fatal(err)
	}
	rts := httptest.NewServer(rt.Handler())
	t.Cleanup(rts.Close)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go rt.Run(ctx)
	waitFor := func(what string, ok func(RouterCounters) bool) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for !ok(rt.Counters()) {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s: %+v", what, rt.Counters())
			}
			time.Sleep(5 * time.Millisecond)
		}
	}

	// Proxied session traffic, tenants and the metrics fan-out.
	client := service.NewClient(rts.URL, service.WithRetry(service.DefaultChaosRetry()))
	ids := createSessions(t, client, 12)
	planAll(t, client, ids, 1)
	if _, err := client.State(ctx, ids[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := client.CreateTenant(ctx, service.TenantSpec{Name: "acme", MaxActive: 4}); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Tenants(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Tenant(ctx, "acme"); err != nil {
		t.Fatal(err)
	}
	if _, err := client.MetricsDump(ctx); err != nil {
		t.Fatal(err)
	}

	// Cut router→s2: the router's misses trigger a relay probe through s0 or
	// s1, whose GET of s2's /readyz must land untagged.
	cut.host.Store(strings.TrimPrefix(fleet[2].ts.URL, "http://"))
	waitFor("a suspected partition", func(c RouterCounters) bool { return c.PartitionsSuspectedTotal > 0 })
	cut.host.Store("")
	waitFor("the partition to heal", func(c RouterCounters) bool { return c.PartitionsHealedTotal > 0 && c.ShardsUp == 3 })

	// Drain s0 (list, export, adopt), join s3 (readiness, list, export,
	// adopt), then kill s1 for a failover adopt.
	if _, err := Drain(ctx, rts.URL, "s0"); err != nil {
		t.Fatalf("drain: %v", err)
	}
	s3 := newShard("s3")
	if _, err := Join(ctx, rts.URL, s3.shard); err != nil {
		t.Fatalf("join: %v", err)
	}
	fleet[1].ts.CloseClientConnections()
	fleet[1].ts.Close()
	waitFor("the failover handoff", func(c RouterCounters) bool { return c.HandoffSessionsTotal > 0 })
	cancel()

	log.mu.Lock()
	defer log.mu.Unlock()
	for _, b := range log.bad {
		t.Error(b)
	}
	if log.relays == 0 {
		t.Error("no peer-relayed /readyz reached a shard")
	}
	var untagged []string
	for route := range log.untagged {
		untagged = append(untagged, route)
	}
	sort.Strings(untagged)
	if len(untagged) > 0 {
		t.Errorf("router requests without %s:\n  %s", service.RouterIdentityHeader, strings.Join(untagged, "\n  "))
	}
	for _, route := range []string{
		"GET /readyz", "POST /v1/admin/probe", "POST /v1/admin/adopt", "POST /v1/admin/export",
		"GET /v1/admin/sessions", "GET /metrics?raw=1", "POST /v1/tenants", "GET /v1/tenants",
		"GET /v1/tenants/{tenants}", "POST /v1/sessions", "POST /v1/sessions/{sessions}/plan",
		"GET /v1/sessions/{sessions}/state",
	} {
		if !log.seen[route] {
			t.Errorf("the walk never sent %s", route)
		}
	}
}

// TestRouterTagAllocatesNothing pins that stamping the identity header costs
// a proxied request no allocation.
func TestRouterTagAllocatesNothing(t *testing.T) {
	rt := routerTransport{next: roundTripFunc(func(*http.Request) (*http.Response, error) { return nil, nil })}
	req := httptest.NewRequest(http.MethodPost, "http://shard/v1/sessions/x/plan", nil)
	if n := testing.AllocsPerRun(100, func() { _, _ = rt.RoundTrip(req) }); n != 0 {
		t.Errorf("tagging a request allocates %v times, want 0", n)
	}
	if got := req.Header.Get(service.RouterIdentityHeader); got == "" {
		t.Errorf("request left without %s", service.RouterIdentityHeader)
	}
}

type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }
