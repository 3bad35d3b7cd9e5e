package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/cluster"
)

// routeFlags are the router's flags; the ring size, probe timeout and
// Retry-After hint run at their cluster.RouterConfig defaults.
type routeFlags struct {
	*flag.FlagSet
	addr      *string
	shards    stringList
	heartbeat *time.Duration
	failAfter *int
}

func newRouteFlags() *routeFlags {
	fs := newFlagSet("route")
	f := &routeFlags{FlagSet: fs}
	f.addr = fs.String("addr", "127.0.0.1:8080", "listen address (port 0 = ephemeral)")
	fs.Var(&f.shards, "shard", "shard as name=url=journal-dir (repeatable)")
	f.heartbeat = fs.Duration("heartbeat", time.Second, "shard liveness probe interval, and one probe's timeout")
	f.failAfter = fs.Int("fail-after", 3, "consecutive probe misses before a shard is declared dead")
	return f
}

// runRoute runs the sharded control plane's stateless front end: it
// consistent-hashes session IDs onto the -shard fleet, heartbeats it, and on
// shard death hands the dead shard's journal directories to a surviving peer.
func runRoute(args []string) error {
	f := newRouteFlags()
	if err := parseFlags(f.FlagSet, args, false); err != nil {
		return err
	}
	shards := make([]cluster.Shard, 0, len(f.shards))
	for _, s := range f.shards {
		sh, err := cluster.ParseShard(s)
		if err != nil {
			return err
		}
		shards = append(shards, sh)
	}
	rt, err := cluster.NewRouter(cluster.RouterConfig{
		Shards:            shards,
		HeartbeatInterval: *f.heartbeat,
		FailThreshold:     *f.failAfter,
		Logf:              stderrf,
	})
	if err != nil {
		return err
	}

	ln, err := net.Listen("tcp", *f.addr)
	if err != nil {
		return err
	}
	// The bound address goes to stdout so scripts (and process_test.go)
	// can start on port 0 and discover the URL.
	fmt.Printf("wire-serve: routing on http://%s\n", ln.Addr())
	stderrf("wire-serve route: %d shard(s), 10k-key spread %v", len(shards), rt.Ring().Spread(10000))

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	go rt.Run(ctx)
	hs := &http.Server{Handler: rt.Handler(), ReadHeaderTimeout: 10 * time.Second}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = hs.Shutdown(sctx)
	stderrf("wire-serve route: shutdown complete")
	return nil
}
