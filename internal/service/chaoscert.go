package service

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"time"

	"repro/internal/chaos"
)

// ChaosCertConfig drives ChaosCertify: the chaos certificate run behind
// `wire-serve loadgen -chaos`.
type ChaosCertConfig struct {
	// Loadgen configures the sessions. Client is filled in by the harness;
	// Chaos and Verify should be set (the certificate is the verification).
	Loadgen LoadgenConfig
	// Server configures the daemon; JournalDir is overridden.
	Server Config
	// JournalDir holds the per-session WALs (default: a fresh temp dir,
	// removed afterwards).
	JournalDir string
	// KillAfterPlans abruptly kills the daemon once it hosts a session and
	// has served this many plans plus a jitter of up to as many again, drawn
	// from the Loadgen chaos plan's seed — open connections die mid-flight,
	// no drain — and restarts it from the journal after Downtime. Progress,
	// not a timer, so the kill lands mid-run however fast planning is. Zero
	// skips the kill.
	KillAfterPlans int
	// Downtime is how long the daemon stays dead (default 100ms).
	Downtime time.Duration
}

// ChaosCertResult is a certificate run's outcome.
type ChaosCertResult struct {
	*LoadgenResult
	// Killed reports whether the mid-run kill actually happened (the run
	// may finish first).
	Killed bool
	// JournalReplays is how many sessions the restarted daemon rebuilt
	// from write-ahead logs.
	JournalReplays int64
}

// ChaosCertify hosts a wire-serve daemon in-process, drives chaos loadgen
// against it through injected network faults, optionally kills and restarts
// the daemon mid-run (recovering every session from its journal), and
// returns the loadgen report. The certificate passes when no session fails,
// mismatches, or loses a plan interval — i.e. the decision streams are
// byte-identical to fault-free in-process twin runs.
func ChaosCertify(ctx context.Context, cfg ChaosCertConfig) (*ChaosCertResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	logf := cfg.Server.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	if cfg.JournalDir == "" {
		dir, err := os.MkdirTemp("", "wire-serve-chaos-*")
		if err != nil {
			return nil, fmt.Errorf("chaos cert: %w", err)
		}
		defer os.RemoveAll(dir)
		cfg.JournalDir = dir
	}
	cfg.Server.JournalDir = cfg.JournalDir
	if cfg.Downtime <= 0 {
		cfg.Downtime = 100 * time.Millisecond
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("chaos cert: %w", err)
	}
	addr := ln.Addr().String()
	srv := New(cfg.Server)
	hs := &http.Server{Handler: srv.Handler()}
	go func() { _ = hs.Serve(ln) }()

	cfg.Loadgen.Client = NewClient("http://" + addr)
	resc := make(chan *LoadgenResult, 1)
	errc := make(chan error, 1)
	go func() {
		res, err := Loadgen(ctx, cfg.Loadgen)
		if err != nil {
			errc <- err
			return
		}
		resc <- res
	}()

	out := &ChaosCertResult{}
	if cfg.KillAfterPlans > 0 {
		var plan chaos.Plan
		if cfg.Loadgen.Chaos != nil {
			plan = *cfg.Loadgen.Chaos
		}
		_, jitter := plan.ShardKillSchedule(1, cfg.KillAfterPlans)
		killAt := int64(cfg.KillAfterPlans + jitter)
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
	killLoop:
		for {
			select {
			case res := <-resc:
				// The run outpaced the kill; certify without it.
				out.LoadgenResult = res
				break killLoop
			case err := <-errc:
				_ = hs.Close()
				return nil, err
			case <-tick.C:
				served := srv.Metrics().Served("plan")
				if served < killAt || srv.Store().Len() == 0 {
					continue
				}
				logf("chaos cert: killing daemon at %s after %d plan(s) (abrupt, no drain)", addr, served)
				_ = hs.Close() // kills open connections mid-flight
				time.Sleep(cfg.Downtime)
				ln2, err := relisten(addr)
				if err != nil {
					return nil, fmt.Errorf("chaos cert: rebind %s: %w", addr, err)
				}
				srv = New(cfg.Server) // rebuilds the session store from WALs
				hs = &http.Server{Handler: srv.Handler()}
				go func() { _ = hs.Serve(ln2) }()
				out.Killed = true
				logf("chaos cert: daemon restarted with %d recovered session(s)", srv.Store().Len())
				break killLoop
			}
		}
	}
	if out.LoadgenResult == nil {
		select {
		case res := <-resc:
			out.LoadgenResult = res
		case err := <-errc:
			_ = hs.Close()
			return nil, err
		}
	}
	dump := srv.Metrics().Dump(time.Now(), srv.Store().Len())
	out.JournalReplays = dump.FaultTolerance.JournalReplaysTotal
	_ = hs.Close()
	return out, nil
}

// relisten rebinds an exact address, retrying briefly: the dead server's
// socket can linger for a moment after Close.
func relisten(addr string) (net.Listener, error) {
	var err error
	for i := 0; i < 50; i++ {
		var ln net.Listener
		if ln, err = net.Listen("tcp", addr); err == nil {
			return ln, nil
		}
		time.Sleep(20 * time.Millisecond)
	}
	return nil, err
}
