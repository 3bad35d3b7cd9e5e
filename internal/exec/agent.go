package exec

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strings"
	"sync"
	"time"

	"repro/internal/simtime"
)

// LiveClient is the HTTP client for the live-run API, shared by wire-agent,
// the examples/live-run program, and the tests.
type LiveClient struct {
	base string
	hc   *http.Client
}

// NewLiveClient returns a client for a wire-serve base URL
// (e.g. "http://127.0.0.1:8080") with no overall timeout: long-polls are
// bounded server-side.
func NewLiveClient(base string) *LiveClient {
	return &LiveClient{base: strings.TrimRight(base, "/"), hc: &http.Client{}}
}

// APIError is a non-2xx response from the live API.
type APIError struct {
	Status int
	Code   string
	Msg    string
}

// Error implements error.
func (e *APIError) Error() string {
	return fmt.Sprintf("live api: %d %s: %s", e.Status, e.Code, e.Msg)
}

// IsCode reports whether err is an APIError with the given code.
func IsCode(err error, code string) bool {
	ae, ok := err.(*APIError)
	return ok && ae.Code == code
}

// RegisterError is a terminal registration rejection: the dispatcher will
// never admit this agent (the run is unknown, already over, or the daemon is
// at its run limit), so retrying is pointless. wire-agent detects it with
// errors.As and exits non-zero with an operator-readable reason.
type RegisterError struct {
	RunID string
	// Code is the API error code: "not_found", "run_over", or "max_runs".
	Code string
	Err  error
}

// Error implements error.
func (e *RegisterError) Error() string {
	return fmt.Sprintf("exec: agent registration on run %s rejected (%s): %v", e.RunID, e.Code, e.Err)
}

// Unwrap exposes the underlying API error.
func (e *RegisterError) Unwrap() error { return e.Err }

func (c *LiveClient) do(ctx context.Context, method, path string, in, out any) error {
	var body io.Reader
	if in != nil {
		b, err := json.Marshal(in)
		if err != nil {
			return err
		}
		body = bytes.NewReader(b)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, body)
	if err != nil {
		return err
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 300 {
		var eb errorBody
		_ = json.NewDecoder(io.LimitReader(resp.Body, 1<<16)).Decode(&eb)
		return &APIError{Status: resp.StatusCode, Code: eb.Code, Msg: eb.Error}
	}
	if out == nil {
		io.Copy(io.Discard, resp.Body)
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// CreateRun starts tracking a new live run.
func (c *LiveClient) CreateRun(ctx context.Context, req *CreateRunRequest) (RunInfo, error) {
	var out RunInfo
	err := c.do(ctx, http.MethodPost, "/v1/live/runs", req, &out)
	return out, err
}

// StartRun launches a created run's clock.
func (c *LiveClient) StartRun(ctx context.Context, runID string) (RunStatusResponse, error) {
	var out RunStatusResponse
	err := c.do(ctx, http.MethodPost, "/v1/live/runs/"+runID+"/start", nil, &out)
	return out, err
}

// RunStatus fetches a run's status.
func (c *LiveClient) RunStatus(ctx context.Context, runID string) (RunStatusResponse, error) {
	var out RunStatusResponse
	err := c.do(ctx, http.MethodGet, "/v1/live/runs/"+runID, nil, &out)
	return out, err
}

// PlanStream fetches a run's recorded snapshot→decision pairs.
func (c *LiveClient) PlanStream(ctx context.Context, runID string) ([]PlanRecord, error) {
	var out PlanStreamResponse
	err := c.do(ctx, http.MethodGet, "/v1/live/runs/"+runID+"/stream", nil, &out)
	return out.Records, err
}

// Register adds this process as a worker on a run.
func (c *LiveClient) Register(ctx context.Context, runID, name string, slots int) (RegisterResponse, error) {
	var out RegisterResponse
	err := c.do(ctx, http.MethodPost, "/v1/live/runs/"+runID+"/agents",
		RegisterRequest{Name: name, Slots: slots}, &out)
	return out, err
}

// Poll long-polls for leases; it doubles as the heartbeat.
func (c *LiveClient) Poll(ctx context.Context, runID, agentID string, wait time.Duration) (PollResponse, error) {
	var out PollResponse
	err := c.do(ctx, http.MethodPost,
		fmt.Sprintf("/v1/live/runs/%s/agents/%s/poll", runID, agentID),
		PollRequest{WaitMs: wait.Milliseconds()}, &out)
	return out, err
}

// ReportTransfer posts the measured mid-task transfer time.
func (c *LiveClient) ReportTransfer(ctx context.Context, runID, agentID string, leaseID int64, rep TransferReport) (Ack, error) {
	var out Ack
	err := c.do(ctx, http.MethodPost,
		fmt.Sprintf("/v1/live/runs/%s/agents/%s/leases/%d/transfer", runID, agentID, leaseID), rep, &out)
	return out, err
}

// Complete posts a finished lease's measured times.
func (c *LiveClient) Complete(ctx context.Context, runID, agentID string, leaseID int64, rep CompleteReport) (Ack, error) {
	var out Ack
	err := c.do(ctx, http.MethodPost,
		fmt.Sprintf("/v1/live/runs/%s/agents/%s/leases/%d/complete", runID, agentID, leaseID), rep, &out)
	return out, err
}

// AgentConfig parameterizes one worker process (or goroutine).
type AgentConfig struct {
	// BaseURL is the wire-serve address; RunID the run to serve. Required.
	BaseURL string
	RunID   string

	// Name labels the agent in status output; Slots is the advertised
	// concurrency (default 1).
	Name  string
	Slots int

	// PollWait caps the long-poll duration; the effective wait also stays
	// under half the server's heartbeat TTL. Default 5 s.
	PollWait time.Duration

	// Logf, when set, receives operational log lines.
	Logf func(format string, args ...any)
}

// RunAgent is the worker loop: register, long-poll for leases, emulate each
// leased task, report measured times. It returns nil when the run finishes,
// or the first fatal error (context cancellation, run deleted). A dispatcher
// that declared this agent dead (heartbeat lapse during a partition) answers
// polls with unknown_agent; the loop re-registers as a fresh agent, exactly
// like a replacement worker booting on the same node.
func RunAgent(ctx context.Context, cfg AgentConfig) error {
	if cfg.BaseURL == "" || cfg.RunID == "" {
		return fmt.Errorf("exec: agent needs BaseURL and RunID")
	}
	if cfg.Slots <= 0 {
		cfg.Slots = 1
	}
	if cfg.PollWait <= 0 {
		cfg.PollWait = 5 * time.Second
	}
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	client := NewLiveClient(cfg.BaseURL)
	// Seed 0: every agent process draws its own retry jitter.
	jitter := newJitterSeq(0)

	var wg sync.WaitGroup
	defer wg.Wait()

	var agentID string
	var wait time.Duration
	// register retries transport failures with jittered-exponential backoff
	// (the dispatcher may be mid-restart, replaying its journal) and turns
	// terminal API rejections into RegisterError.
	register := func() error {
		rs := retrySleeper{rng: jitter.next()}
		for {
			reg, err := client.Register(ctx, cfg.RunID, cfg.Name, cfg.Slots)
			if err == nil {
				agentID = reg.AgentID
				wait = cfg.PollWait
				if ttl := wallMs(reg.HeartbeatTTLMs); ttl > 0 && wait > ttl/2 {
					wait = ttl / 2
				}
				logf("agent %s: registered on %s (%d slots, poll %v)", agentID, cfg.RunID, cfg.Slots, wait)
				return nil
			}
			for _, code := range []string{"not_found", "run_over", "max_runs"} {
				if IsCode(err, code) {
					return &RegisterError{RunID: cfg.RunID, Code: code, Err: err}
				}
			}
			if ctx.Err() != nil {
				return ctx.Err()
			}
			if rs.retry >= 10 {
				return err
			}
			logf("agent %q: register attempt %d failed: %v", cfg.Name, rs.retry+1, err)
			if serr := rs.Sleep(ctx); serr != nil {
				return serr
			}
		}
	}
	if err := register(); err != nil {
		var rerr *RegisterError
		if errors.As(err, &rerr) {
			return err
		}
		return fmt.Errorf("exec: agent register: %w", err)
	}

	// pollBackoff spaces retries of transient poll failures — including a
	// dispatcher that is down for a restart — and resets on any success, so
	// a recovered daemon sees the agent within one heartbeat TTL.
	pollBackoff := retrySleeper{rng: jitter.next()}
	for {
		resp, err := client.Poll(ctx, cfg.RunID, agentID, wait)
		switch {
		case ctx.Err() != nil:
			return ctx.Err()
		case IsCode(err, "unknown_agent"):
			// Declared dead (partition, missed heartbeats). Our leases were
			// reclaimed; come back as a new worker. A restarted dispatcher
			// that replayed our registration hands back the same identity.
			logf("agent %s: declared dead by dispatcher; re-registering", agentID)
			if rerr := register(); rerr != nil {
				var reg *RegisterError
				if errors.As(rerr, &reg) && (reg.Code == "run_over" || reg.Code == "not_found") {
					return nil
				}
				return fmt.Errorf("exec: agent re-register: %w", rerr)
			}
			continue
		case IsCode(err, "not_found"):
			return fmt.Errorf("exec: run %s gone: %w", cfg.RunID, err)
		case err != nil:
			// Transient transport failure (injected chaos, or the daemon
			// restarting): back off and keep heartbeating.
			if serr := pollBackoff.Sleep(ctx); serr != nil {
				return serr
			}
			continue
		}
		pollBackoff.Reset()
		for _, l := range resp.Leases {
			wg.Add(1)
			go func(l Lease, rng *rand.Rand) {
				defer wg.Done()
				runLease(ctx, client, cfg, agentID, l, logf, rng)
			}(l, jitter.next())
		}
		if resp.Done {
			logf("agent %s: run finished; draining", agentID)
			return nil
		}
	}
}

// runLease emulates one leased task and reports its measurements.
func runLease(ctx context.Context, client *LiveClient, cfg AgentConfig, agentID string, l Lease, logf func(string, ...any), jitterRNG *rand.Rand) {
	runID := cfg.RunID
	em := &Emulator{Spec: l.Spec}
	rep, err := em.Run(ctx, func(transfer simtime.Duration) {
		// Mid-task kickstart record: measured transfer duration. Best
		// effort — the completion report carries it too.
		_, _ = client.ReportTransfer(ctx, runID, agentID, l.ID, TransferReport{TransferS: transfer})
	})
	if err != nil {
		logf("agent %s: lease %d interrupted: %v", agentID, l.ID, err)
		return
	}
	// The measurement must not be lost to a transient blip: retry with the
	// shared jittered backoff, long enough to ride out a dispatcher restart.
	rs := retrySleeper{rng: jitterRNG}
	for {
		ack, err := client.Complete(ctx, runID, agentID, l.ID, rep)
		if err == nil {
			if ack.Stale {
				logf("agent %s: lease %d was reclaimed; result dropped", agentID, l.ID)
			}
			return
		}
		if ctx.Err() != nil || IsCode(err, "not_found") || IsCode(err, "unknown_agent") || rs.retry >= 12 {
			logf("agent %s: lease %d complete failed: %v", agentID, l.ID, err)
			return
		}
		if rs.Sleep(ctx) != nil {
			return
		}
	}
}
