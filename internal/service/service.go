// Package service hosts WIRE controllers behind a JSON HTTP API: the
// controller-as-a-service daemon of cmd/wire-serve.
//
// The paper's MAPE loop is substrate-agnostic — it consumes monitoring
// snapshots and emits scaling decisions (§III-B/§III-D) — so a controller
// does not have to live inside the process that executes the workflow. This
// package keeps many concurrent controller sessions in a capacity-capped,
// TTL-evicted store and serves one pure request/response endpoint per MAPE
// phase:
//
//	POST   /v1/sessions            create a session (workflow + policy)
//	POST   /v1/sessions/{id}/plan  snapshot in, decision + predictions out
//	GET    /v1/sessions/{id}/state WIRE run state (prediction wavefront)
//	DELETE /v1/sessions/{id}       drop the session
//	GET    /healthz                liveness
//	GET    /metrics                counters and latency quantiles
//
// The same package ships the HTTP client, a RemoteController adapter that
// lets internal/sim execute against a remote daemon, and the load generator
// behind wire-serve's loadgen mode.
package service

import (
	"context"
	"net"
	"net/http"
	"os"
	"sync/atomic"
	"time"

	"repro/internal/exec"
)

// Config tunes the daemon.
type Config struct {
	// MaxSessions caps concurrently hosted sessions (default 1024;
	// negative = unbounded).
	MaxSessions int
	// IdleTTL evicts sessions untouched for this long (default 30m;
	// negative disables eviction).
	IdleTTL time.Duration
	// JanitorInterval is the eviction sweep period (default 1m).
	JanitorInterval time.Duration
	// ShutdownGrace bounds the drain of in-flight requests on shutdown
	// (default 10s).
	ShutdownGrace time.Duration
	// JournalDir, when set, enables the crash-recovery journal: every
	// session appends its lifecycle to <dir>/<id>.wal and a restarted
	// daemon rebuilds its session store by replay (see journal.go). Live
	// runs journal their agent events to <dir>/live-*.jsonl. Empty
	// disables journaling.
	JournalDir string
	// LiveMaxRuns caps concurrently tracked live execution runs
	// (default 8; negative disables the live plane entirely).
	LiveMaxRuns int
	// ShardMode runs this daemon as one session shard of a cluster behind a
	// wire-serve router: create requests may carry a router-assigned session
	// ID (SessionIDHeader, idempotent on retry) and the journal-adoption
	// endpoint POST /v1/admin/adopt is mounted so the router can hand this
	// shard a dead peer's journal directory for failover.
	ShardMode bool
	// DrainTimeout bounds how long shutdown waits for in-flight agent
	// leases to complete or be reclaimed before the HTTP server is torn
	// down (default 30s). HTTP connection draining alone would abandon
	// agents mid-task; this flag is the lease-level counterpart.
	DrainTimeout time.Duration
	// FsyncMode controls when journal appends — session WALs and live-run
	// journals alike — reach stable storage: FsyncRecord syncs every
	// append, FsyncPerInterval syncs each journal at most once per
	// FsyncInterval (plus on close), FsyncOff never syncs (the OS
	// decides). Default FsyncPerInterval: the fenced-copy handoff protocol
	// is unaffected (in-process reads see unsynced writes), only the
	// power-loss window changes. An unknown value falls back to the default.
	FsyncMode string
	// FsyncInterval is the per-interval sync period (default 100ms).
	FsyncInterval time.Duration
	// ProbeClient issues the outbound relay probes of POST /v1/admin/probe
	// (shard mode): a router suspecting a shard dead asks its peers to
	// confirm through their own network paths. Default: a plain client.
	// Chaos harnesses swap in a fault-injecting transport so an in-process
	// partition also severs the peer->suspect edges.
	ProbeClient *http.Client
	// Middleware, when set, wraps the HTTP handler returned by Handler()
	// (and therefore everything Serve serves). The real-process partition
	// harness uses it to drop router-tagged requests for a window,
	// realizing a one-way link cut without touching the network stack.
	Middleware func(http.Handler) http.Handler
	// Clock overrides the wall clock (tests).
	Clock func() time.Time
	// Logf, when set, receives operational log lines.
	Logf func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if c.MaxSessions == 0 {
		c.MaxSessions = 1024
	}
	if c.MaxSessions < 0 {
		c.MaxSessions = 0 // unbounded store
	}
	if c.IdleTTL == 0 {
		c.IdleTTL = 30 * time.Minute
	}
	if c.IdleTTL < 0 {
		c.IdleTTL = 0 // disables eviction
	}
	if c.JanitorInterval <= 0 {
		c.JanitorInterval = time.Minute
	}
	if c.ShutdownGrace <= 0 {
		c.ShutdownGrace = 10 * time.Second
	}
	if c.LiveMaxRuns == 0 {
		c.LiveMaxRuns = 8
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 30 * time.Second
	}
	switch c.FsyncMode {
	case FsyncRecord, FsyncPerInterval, FsyncOff:
	default:
		c.FsyncMode = FsyncPerInterval
	}
	if c.FsyncInterval <= 0 {
		c.FsyncInterval = 100 * time.Millisecond
	}
	if c.ProbeClient == nil {
		c.ProbeClient = &http.Client{}
	}
	if c.Clock == nil {
		c.Clock = time.Now
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c
}

// Server is the controller-as-a-service daemon.
type Server struct {
	cfg     Config
	store   *Store
	metrics *Metrics
	tenants *TenantRegistry
	mux     *http.ServeMux
	live    *exec.Registry
	start   time.Time
	// epoch is the highest cluster fencing epoch this shard has witnessed
	// on an adopt/export request (see handoff.go). A fresh process starts
	// at zero and learns the current epoch from its first handoff.
	epoch atomic.Int64
	// draining flips when shutdown begins; /readyz answers 503 from then on
	// so a router's membership probe steers traffic away before the
	// listener closes.
	draining atomic.Bool
	// replaying counts in-flight journal adoptions; /readyz answers 503
	// while any replay runs, so a probe can't rejoin a shard that is still
	// rebuilding sessions.
	replaying atomic.Int32
}

// New assembles a server from the configuration.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:     cfg,
		store:   NewStore(cfg.MaxSessions, cfg.Clock),
		metrics: NewMetrics(cfg.Clock()),
		tenants: NewTenantRegistry(),
		start:   cfg.Clock(),
	}
	if cfg.JournalDir != "" {
		if err := os.MkdirAll(cfg.JournalDir, 0o755); err != nil {
			s.cfg.Logf("wire-serve: journaling disabled: %v", err)
			s.cfg.JournalDir = ""
		} else {
			s.recoverJournals()
		}
	}
	mux := http.NewServeMux()
	mux.Handle("POST /v1/sessions", s.instrument("create_session", s.handleCreateSession))
	mux.Handle("POST /v1/sessions/{id}/plan", s.instrument("plan", s.handlePlan))
	mux.Handle("GET /v1/sessions/{id}/state", s.instrument("session_state", s.handleSessionState))
	mux.Handle("DELETE /v1/sessions/{id}", s.instrument("delete_session", s.handleDeleteSession))
	mux.Handle("GET /healthz", s.instrument("healthz", s.handleHealthz))
	mux.Handle("GET /readyz", s.instrument("readyz", s.handleReadyz))
	mux.Handle("GET /metrics", s.instrument("metrics", s.handleMetrics))
	mux.Handle("POST /v1/tenants", s.instrument("create_tenant", s.handleCreateTenant))
	mux.Handle("GET /v1/tenants", s.instrument("tenant_list", s.handleListTenants))
	mux.Handle("GET /v1/tenants/{name}", s.instrument("tenant_state", s.handleGetTenant))
	if cfg.ShardMode {
		mux.Handle("POST /v1/admin/adopt", s.instrument("adopt", s.handleAdopt))
		mux.Handle("POST /v1/admin/export", s.instrument("export", s.handleExport))
		mux.Handle("GET /v1/admin/sessions", s.instrument("session_list", s.handleListSessions))
		mux.Handle("POST /v1/admin/probe", s.instrument("probe", s.handleProbe))
	}
	if cfg.LiveMaxRuns > 0 {
		live, err := exec.NewRegistry(exec.RegistryConfig{
			Factory:    LiveControllerFactory,
			MaxRuns:    cfg.LiveMaxRuns,
			JournalDir: s.cfg.JournalDir,
			Sync:       s.fsyncPolicy(),
			Logf:       cfg.Logf,
		})
		if err != nil {
			// Only reachable with a nil factory; keep New's signature.
			panic(err)
		}
		live.Mount(mux)
		s.live = live
		if s.cfg.JournalDir != "" {
			if n, err := live.Recover(); err != nil {
				s.cfg.Logf("wire-serve: live run recovery: %v", err)
			} else if n > 0 {
				s.cfg.Logf("wire-serve: recovered %d live run(s) from journal", n)
			}
		}
	}
	s.mux = mux
	return s
}

func (s *Server) now() time.Time { return s.cfg.Clock() }

// Store exposes the session store (tests and embedding callers).
func (s *Server) Store() *Store { return s.store }

// Metrics exposes the metrics registry.
func (s *Server) Metrics() *Metrics { return s.metrics }

// Tenants exposes the tenant registry (tests and embedding callers).
func (s *Server) Tenants() *TenantRegistry { return s.tenants }

// Epoch returns the highest cluster fencing epoch this shard has seen.
func (s *Server) Epoch() int64 { return s.epoch.Load() }

// advanceEpoch admits one handoff's fencing epoch e and ratchets the
// shard's epoch up to it. It answers the request and reports false when e is
// missing (400: every router handoff carries a positive epoch) or BELOW an
// epoch already witnessed (409 stale_epoch: the request comes from a stale
// router view).
func (s *Server) advanceEpoch(w http.ResponseWriter, verb string, e int64) bool {
	if e <= 0 {
		s.writeError(w, http.StatusBadRequest, "bad_request", "%s needs a positive epoch", verb)
		return false
	}
	for {
		cur := s.epoch.Load()
		if e < cur {
			s.writeError(w, http.StatusConflict, "stale_epoch",
				"%s at epoch %d rejected: this shard has seen epoch %d", verb, e, cur)
			return false
		}
		if e == cur || s.epoch.CompareAndSwap(cur, e) {
			return true
		}
	}
}

// Handler returns the daemon's HTTP handler; it is safe for concurrent use.
func (s *Server) Handler() http.Handler {
	if s.cfg.Middleware != nil {
		return s.cfg.Middleware(s.mux)
	}
	return s.mux
}

// statusWriter captures the response status for the metrics middleware.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

func (s *Server) instrument(name string, h http.HandlerFunc) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		t0 := time.Now()
		h(sw, r)
		s.metrics.Observe(name, time.Since(t0), sw.status >= 400)
	})
}

// EvictIdleNow runs one eviction sweep and returns the number of sessions
// dropped. The janitor calls it on every tick; tests call it directly.
func (s *Server) EvictIdleNow() int {
	evicted := s.store.EvictIdleSessions(s.cfg.IdleTTL)
	for _, sess := range evicted {
		if sess.Tenant != "" {
			s.tenants.Release(sess.Tenant)
		}
	}
	n := len(evicted)
	s.metrics.SessionsEvicted(n)
	if n > 0 {
		s.cfg.Logf("wire-serve: evicted %d idle session(s), %d live", n, s.store.Len())
	}
	return n
}

// janitor sweeps idle sessions until ctx is canceled.
func (s *Server) janitor(ctx context.Context) {
	if s.cfg.IdleTTL <= 0 {
		return
	}
	t := time.NewTicker(s.cfg.JanitorInterval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			s.EvictIdleNow()
		}
	}
}

// Serve runs the daemon on the listener until ctx is canceled, then drains
// in-flight requests (bounded by ShutdownGrace) and returns. The janitor
// goroutine runs for the lifetime of the call.
func (s *Server) Serve(ctx context.Context, ln net.Listener) error {
	hs := &http.Server{
		Handler:           s.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	janCtx, janCancel := context.WithCancel(ctx)
	defer janCancel()
	go s.janitor(janCtx)

	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
		// Readiness drops first: the router's probe steers new traffic away
		// while the drain below still answers in-flight work.
		s.draining.Store(true)
		// Drain live agent leases first, while the API is still up: agents
		// must be able to report (or time out and be reclaimed) before the
		// HTTP server stops accepting their requests.
		if s.live != nil {
			s.cfg.Logf("wire-serve: shutting down, draining in-flight agent leases (timeout %v)", s.cfg.DrainTimeout)
			drainCtx, cancel := context.WithTimeout(context.Background(), s.cfg.DrainTimeout)
			if err := s.live.Drain(drainCtx); err != nil {
				s.cfg.Logf("wire-serve: %v", err)
			}
			cancel()
		}
		s.cfg.Logf("wire-serve: draining in-flight requests")
		shutdownCtx, cancel := context.WithTimeout(context.Background(), s.cfg.ShutdownGrace)
		defer cancel()
		if err := hs.Shutdown(shutdownCtx); err != nil {
			return err
		}
		<-errc // Serve has returned http.ErrServerClosed
		return nil
	}
}
