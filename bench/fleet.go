package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/service"
)

// daemon is one in-process wire-serve on a loopback port.
type daemon struct {
	name string
	dir  string // journal directory ("" = none)
	url  string
	srv  *service.Server
	hs   *http.Server

	inflight atomic.Int64
}

// startDaemon serves cfg on 127.0.0.1:0. With a recorder, the handler is
// wrapped through the public Config.Middleware seam.
func startDaemon(name string, cfg service.Config, rec *recorder) (*daemon, error) {
	if rec != nil {
		cfg.Middleware = func(h http.Handler) http.Handler {
			return spanHandler(rec, "service.handler_ms", h)
		}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	d := &daemon{name: name, dir: cfg.JournalDir, url: "http://" + ln.Addr().String()}
	d.srv = service.New(cfg)
	inner := d.srv.Handler()
	d.hs = &http.Server{
		ReadHeaderTimeout: 10 * time.Second,
		Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			d.inflight.Add(1)
			defer d.inflight.Add(-1)
			inner.ServeHTTP(w, r)
		}),
	}
	go func() { _ = d.hs.Serve(ln) }()
	return d, nil
}

// kill closes the listener and every open connection at once — the
// in-process stand-in for SIGKILL — then waits out handlers already running,
// which a real kill would have stopped mid-instruction.
func (d *daemon) kill() {
	_ = d.hs.Close()
	deadline := time.Now().Add(5 * time.Second)
	for d.inflight.Load() > 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
}

// adoptCallSpan names the router's journal-handoff request to the adopter.
const adoptCallSpan = "cluster.failover.adopt_call"

// fleetConfig describes a router over N shard daemons.
type fleetConfig struct {
	Root      string // parent of the per-shard journal directories
	Shards    int
	Fsync     string
	Heartbeat time.Duration
	FailAfter int
}

// fleet is a cluster.Router in front of ShardMode daemons, all in-process.
type fleet struct {
	shards []*daemon
	rt     *cluster.Router
	rhs    *http.Server
	url    string
	cancel context.CancelFunc
	done   chan struct{}
}

func startFleet(cfg fleetConfig, rec *recorder) (*fleet, error) {
	f := &fleet{done: make(chan struct{})}
	list := make([]cluster.Shard, cfg.Shards)
	for i := range list {
		name := "s" + strconv.Itoa(i)
		dir := filepath.Join(cfg.Root, name)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			f.stop()
			return nil, err
		}
		d, err := startDaemon(name, service.Config{ShardMode: true, JournalDir: dir, FsyncMode: cfg.Fsync}, rec)
		if err != nil {
			f.stop()
			return nil, err
		}
		f.shards = append(f.shards, d)
		list[i] = cluster.Shard{Name: name, URL: d.url, JournalDir: dir}
	}
	rcfg := cluster.RouterConfig{
		Shards:            list,
		HeartbeatInterval: cfg.Heartbeat,
		// A dead listener refuses at once, so a long probe timeout costs
		// nothing for detection and keeps a busy shard from flapping.
		HeartbeatTimeout: 2 * time.Second,
		FailThreshold:    cfg.FailAfter,
	}
	if rec != nil {
		rcfg.Client = &http.Client{Transport: &spanTransport{
			rec: rec, name: "cluster.router.upstream_ms", base: pooledTransport(),
			roots: map[string]string{"/v1/admin/adopt": adoptCallSpan},
		}}
	}
	rt, err := cluster.NewRouter(rcfg)
	if err != nil {
		f.stop()
		return nil, err
	}
	f.rt = rt
	ctx, cancel := context.WithCancel(context.Background())
	f.cancel = cancel
	go func() {
		rt.Run(ctx)
		close(f.done)
	}()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		f.stop()
		return nil, err
	}
	h := rt.Handler()
	if rec != nil {
		h = spanHandler(rec, "cluster.router_ms", h)
	}
	f.rhs = &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	go func() { _ = f.rhs.Serve(ln) }()
	f.url = "http://" + ln.Addr().String()
	return f, nil
}

// stop tears the fleet down; it is safe on a partly started fleet.
func (f *fleet) stop() {
	if f.rhs != nil {
		_ = f.rhs.Close()
	}
	if f.cancel != nil {
		f.cancel()
		<-f.done
	}
	for _, d := range f.shards {
		d.kill()
	}
}

func (f *fleet) dirs() []string {
	out := make([]string, len(f.shards))
	for i, d := range f.shards {
		out[i] = d.dir
	}
	return out
}

func (f *fleet) shard(name string) *daemon {
	for _, d := range f.shards {
		if d.name == name {
			return d
		}
	}
	return nil
}

// newClient builds the service client the workloads drive. Tracing goes in
// through the public WithTransport seam; the untraced client is the stock
// one, connection pool included.
func newClient(base string, rec *recorder) *service.Client {
	if rec == nil {
		return service.NewClient(base)
	}
	return service.NewClient(base, service.WithTransport(&spanTransport{rec: rec, name: "service.client.transport_ms", base: pooledTransport()}))
}

// pooledTransport is the transport the stock service client and router
// build for themselves (256 idle connections per host), for a traced run to
// wrap.
func pooledTransport() *http.Transport {
	t := http.DefaultTransport.(*http.Transport).Clone()
	t.MaxIdleConns = 256
	t.MaxIdleConnsPerHost = 256
	return t
}

// dirBytes sums the sizes of the regular files directly inside each dir.
func dirBytes(dirs ...string) (int64, error) {
	var total int64
	for _, dir := range dirs {
		entries, err := os.ReadDir(dir)
		if err != nil {
			return 0, err
		}
		for _, e := range entries {
			if info, err := e.Info(); err == nil && info.Mode().IsRegular() {
				total += info.Size()
			}
		}
	}
	return total, nil
}

// walSize returns the size of session id's WAL, looked for in each dir.
func walSize(id string, dirs []string) (int64, error) {
	for _, dir := range dirs {
		if info, err := os.Stat(filepath.Join(dir, id+".wal")); err == nil {
			return info.Size(), nil
		}
	}
	return 0, fmt.Errorf("no WAL for session %s", id)
}
