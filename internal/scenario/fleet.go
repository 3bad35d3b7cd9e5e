package scenario

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/chaos"
	"repro/internal/cluster"
	"repro/internal/service"
)

// The fleet's fixed timing. Nothing outside the harness ever set these, so
// they are constants, chosen once so every certificate holds on a slow -race
// run as well as from the CLI.
const (
	// heartbeatInterval and failThreshold give the hosted router sub-second
	// failover, so sessions ride through it well inside their retry budget.
	heartbeatInterval = 50 * time.Millisecond
	failThreshold     = 3
	// heartbeatTimeout is generous on purpose: a dead listener refuses
	// connections instantly, so it costs nothing for death detection, but it
	// keeps a merely-slow shard (fsync under load, race-detector scheduling)
	// from flapping into spurious failovers mid-certificate.
	heartbeatTimeout = 2 * time.Second
	// downtime is how long a routerless daemon stays dead before it restarts
	// in place.
	downtime = 100 * time.Millisecond
)

// inflightHandler counts in-flight requests so stop can wait out a killed
// daemon's already-running handlers: a real SIGKILL stops WAL appends
// instantly, but an in-process http.Server.Close leaves handler goroutines
// running, and none may append to a WAL that a peer's adoption — or the
// daemon's own restart — is mid-replay on.
type inflightHandler struct {
	h http.Handler
	n atomic.Int64
}

func (ih *inflightHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	ih.n.Add(1)
	defer ih.n.Add(-1)
	ih.h.ServeHTTP(w, r)
}

// daemon is one restartable in-process wire-serve daemon. stop tears down the
// listener abruptly (the in-process analogue of SIGKILL); start brings up a
// FRESH service.Server on the same journal directory — startup recovery skips
// fenced WALs, so a restarted shard whose sessions were adopted elsewhere
// comes back empty, exactly like a restarted real process would.
type daemon struct {
	name string
	jdir string
	scfg service.Config

	mu       sync.Mutex
	shard    cluster.Shard
	srv      *service.Server
	hs       *http.Server
	inflight *inflightHandler
	down     bool
}

// start serves a fresh daemon on addr; "127.0.0.1:0" picks a new port, an
// exact address is retried briefly because the dead server's socket can
// linger for a moment after Close.
func (d *daemon) start(addr string) error {
	var ln net.Listener
	var err error
	for i := 0; i < 50; i++ {
		if ln, err = net.Listen("tcp", addr); err == nil {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if err != nil {
		return err
	}
	srv := service.New(d.scfg)
	ih := &inflightHandler{h: srv.Handler()}
	hs := &http.Server{Handler: ih, ReadHeaderTimeout: 10 * time.Second}
	go func() { _ = hs.Serve(ln) }()
	d.mu.Lock()
	defer d.mu.Unlock()
	d.shard = cluster.Shard{Name: d.name, URL: "http://" + ln.Addr().String(), JournalDir: d.jdir}
	d.srv, d.hs, d.inflight = srv, hs, ih
	d.down = false
	return nil
}

// stop kills the daemon's listener and open connections, then waits out
// already-running handlers so no WAL append races a replay of the same file.
func (d *daemon) stop() {
	d.mu.Lock()
	hs, ih := d.hs, d.inflight
	d.down = true
	d.mu.Unlock()
	_ = hs.Close()
	deadline := time.Now().Add(5 * time.Second)
	for ih.n.Load() > 0 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
}

func (d *daemon) current() (cluster.Shard, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.shard, d.down
}

// server returns the daemon's current service.Server (the dead one while the
// daemon is down).
func (d *daemon) server() *service.Server {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.srv
}

// fleet is the in-process system under test: daemons on private journal
// directories, fronted by a router when there is more than one, with every
// link threaded through a chaos.Network when the partition nemesis runs. One
// daemon and no router is the chaos certificate's host.
type fleet struct {
	daemons []*daemon
	rt      *cluster.Router // nil for a single daemon
	network *chaos.Network  // nil without the partition nemesis
	url     string          // what sessions address: the router, or the lone daemon
	close   func()
}

// hostFleet boots cfg.Shards daemons under root (one journal directory each)
// and, for more than one, a router over them whose heartbeat loop runs until
// ctx ends. The partition nemesis threads a chaos.Network seeded with
// cfg.Seed through every link.
func hostFleet(ctx context.Context, cfg *Config, root string, logf func(string, ...any)) (*fleet, error) {
	n := cfg.Shards
	f := &fleet{daemons: make([]*daemon, 0, n)}
	var rhs *http.Server
	f.close = func() {
		if rhs != nil {
			_ = rhs.Close()
		}
		for _, d := range f.daemons {
			d.stop()
		}
	}
	if cfg.Partition != nil {
		f.network = chaos.NewNetwork(chaos.Plan{Seed: cfg.Seed})
	}
	shards := make([]cluster.Shard, n)
	for i := range shards {
		name := "s" + strconv.Itoa(i)
		jdir := filepath.Join(root, name)
		if err := os.MkdirAll(jdir, 0o755); err != nil {
			f.close()
			return nil, err
		}
		dcfg := cfg.Server
		dcfg.ShardMode = n > 1
		dcfg.JournalDir = jdir
		if f.network != nil {
			// Peer relay probes traverse the same faulty links as everything
			// else: a peer on the victim's side of a split cannot vouch for it.
			dcfg.ProbeClient = &http.Client{Transport: f.network.Transport(name, nil)}
		}
		d := &daemon{name: name, jdir: jdir, scfg: dcfg}
		if err := d.start("127.0.0.1:0"); err != nil {
			f.close()
			return nil, err
		}
		f.daemons = append(f.daemons, d)
		shards[i], _ = d.current()
		if f.network != nil {
			f.network.Register(name, shards[i].URL)
		}
	}
	if n == 1 {
		f.url = shards[0].URL
		return f, nil
	}

	rcfg := cluster.RouterConfig{
		Shards:            shards,
		HeartbeatInterval: heartbeatInterval,
		HeartbeatTimeout:  heartbeatTimeout,
		FailThreshold:     failThreshold,
		Logf:              logf,
	}
	if f.network != nil {
		// Every router-originated request (proxies, probes, adopts) rides
		// the router's side of the nemesis links.
		rcfg.Client = &http.Client{Transport: f.network.Transport("router", nil)}
	}
	rt, err := cluster.NewRouter(rcfg)
	if err != nil {
		f.close()
		return nil, err
	}
	rln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		f.close()
		return nil, err
	}
	go rt.Run(ctx)
	rhs = &http.Server{Handler: rt.Handler(), ReadHeaderTimeout: 10 * time.Second}
	go func() { _ = rhs.Serve(rln) }()
	f.rt, f.url = rt, "http://"+rln.Addr().String()
	if f.network != nil {
		f.network.Register("router", f.url)
	}
	return f, nil
}

// client is the retrying client sessions share: persistent enough to ride out
// a failover or a restart in place.
func (f *fleet) client() *service.Client {
	opts := []service.ClientOption{service.WithRetry(service.DefaultChaosRetry())}
	if f.network != nil {
		// Sessions only talk to the router, but registering them gives the
		// nemesis a labeled edge should a schedule ever cut client↔router.
		opts = append(opts, service.WithTransport(f.network.Transport("client", nil)))
	}
	return service.NewClient(f.url, opts...)
}

// kill SIGKILLs daemon i — listener and every open connection die abruptly,
// no drain. Behind a router that is all: the router fails the shard over to a
// peer. A lone daemon has no router to fail it over, so it recovers by
// restarting in place on the same address after downtime, rebuilding its
// sessions from their journals.
func (f *fleet) kill(i int, logf func(string, ...any)) error {
	d := f.daemons[i]
	sh, _ := d.current()
	d.stop()
	if f.rt != nil {
		return nil
	}
	time.Sleep(downtime)
	if err := d.start(strings.TrimPrefix(sh.URL, "http://")); err != nil {
		return fmt.Errorf("restart %s in place: %w", sh.Name, err)
	}
	logf("scenario: daemon restarted at %s with %d recovered session(s)", sh.URL, d.server().Store().Len())
	return nil
}
