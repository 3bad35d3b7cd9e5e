package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"syscall"

	"repro/internal/cluster"
	"repro/internal/service"
)

// serveFlags are the daemon's flags. Session cap and idle TTL, the shutdown
// drain bounds, the fsync period and the live-run cap run at their
// service.Config defaults.
type serveFlags struct {
	*flag.FlagSet
	addr, journal, fsyncMode, name, router *string
	shard, quiet                           *bool
}

func newServeFlags() *serveFlags {
	fs := newFlagSet("serve")
	return &serveFlags{
		FlagSet:   fs,
		addr:      fs.String("addr", "127.0.0.1:8080", "listen address (port 0 = ephemeral)"),
		journal:   fs.String("journal", "", "crash-recovery journal directory (empty = journaling off)"),
		fsyncMode: fs.String("journal-fsync", service.FsyncPerInterval, "journal durability, session WALs and live-run journals alike: record (fsync every append) | interval (at most every 100ms) | off"),
		shard:     fs.Bool("shard", false, "session-shard mode: honor router-assigned session IDs and serve the /v1/admin handoff endpoints"),
		name:      fs.String("name", "", "this shard's name on the router's ring (enables SIGTERM self-drain with -router)"),
		router:    fs.String("router", "", "router base URL; with -name, SIGTERM drains this shard out of the ring before shutdown"),
		quiet:     fs.Bool("quiet", false, "suppress operational log lines"),
	}
}

func runServe(args []string) error {
	f := newServeFlags()
	if err := parseFlags(f.FlagSet, args, false); err != nil {
		return err
	}
	if *f.shard && *f.journal == "" {
		return fmt.Errorf("serve -shard requires -journal (the journal directory is the unit of failover handoff)")
	}
	if (*f.name == "") != (*f.router == "") {
		return fmt.Errorf("serve -name and -router go together (both identify this shard to the router for SIGTERM self-drain)")
	}
	switch *f.fsyncMode {
	case service.FsyncRecord, service.FsyncPerInterval, service.FsyncOff:
	default:
		return fmt.Errorf("serve -journal-fsync wants record, interval, or off (got %q)", *f.fsyncMode)
	}

	logf := stderrf
	if *f.quiet {
		logf = func(string, ...any) {}
	}
	srv := service.New(service.Config{
		JournalDir: *f.journal,
		FsyncMode:  *f.fsyncMode,
		ShardMode:  *f.shard,
		Logf:       logf,
	})

	ln, err := net.Listen("tcp", *f.addr)
	if err != nil {
		return err
	}
	// The bound address goes to stdout so scripts (and process_test.go)
	// can start on port 0 and discover the URL.
	fmt.Printf("wire-serve: listening on http://%s\n", ln.Addr())

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigc
		signal.Stop(sigc) // a second signal kills outright
		// Self-drain BEFORE tearing the server down: the drain migrates this
		// shard's sessions to live peers, and this shard must keep serving
		// (it is the export donor) until the router says the drain is done.
		if *f.name != "" {
			logf("wire-serve: SIGTERM: draining shard %s out of the ring via %s", *f.name, *f.router)
			dctx, dcancel := context.WithTimeout(context.Background(), opTimeout)
			if body, err := cluster.Drain(dctx, *f.router, *f.name); err != nil {
				logf("wire-serve: self-drain failed (shutting down anyway; the router will fail this shard over): %v", err)
			} else {
				logf("wire-serve: self-drain complete: %s", body)
			}
			dcancel()
		}
		cancel()
	}()
	if err := srv.Serve(ctx, ln); err != nil {
		return err
	}
	logf("wire-serve: shutdown complete")
	return nil
}
