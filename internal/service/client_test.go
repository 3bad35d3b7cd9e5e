package service

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/dagio"
)

// flakyTripper fails the first N plan attempts: mode "503" synthesizes a 503
// without delivering the request; mode "drop-response" delivers the request,
// lets the server process it, then reports the response lost — the fault that
// distinguishes at-least-once from exactly-once planning.
type flakyTripper struct {
	next http.RoundTripper
	mode string

	mu    sync.Mutex
	fails int
}

func (f *flakyTripper) RoundTrip(req *http.Request) (*http.Response, error) {
	inject := false
	if strings.HasSuffix(req.URL.Path, "/plan") {
		f.mu.Lock()
		if f.fails > 0 {
			f.fails--
			inject = true
		}
		f.mu.Unlock()
	}
	next := f.next
	if next == nil {
		next = http.DefaultTransport
	}
	if !inject {
		return next.RoundTrip(req)
	}
	switch f.mode {
	case "503":
		return &http.Response{
			StatusCode: http.StatusServiceUnavailable,
			Status:     "503 Service Unavailable",
			Proto:      "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1,
			Header:  make(http.Header),
			Body:    io.NopCloser(strings.NewReader("")),
			Request: req,
		}, nil
	case "drop-response":
		resp, err := next.RoundTrip(req)
		if err != nil {
			return nil, err
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return nil, fmt.Errorf("injected: connection reset after delivery")
	default:
		return nil, fmt.Errorf("flakyTripper: unknown mode %q", f.mode)
	}
}

func retryTestPolicy() RetryPolicy {
	return RetryPolicy{MaxAttempts: 4, BaseDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond}
}

// TestClientRetries5xx pins that transient 5xx responses are retried and the
// request eventually succeeds.
func TestClientRetries5xx(t *testing.T) {
	_, base := newTestServer(t, Config{})
	client := NewClient(base.BaseURL(),
		WithTransport(&flakyTripper{mode: "503", fails: 2}),
		WithRetry(retryTestPolicy()))
	ctx := context.Background()
	wf := smallWorkflow(3)
	info, err := client.CreateSession(ctx, CreateSessionRequest{Workflow: dagio.Encode(wf)})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Plan(ctx, info.ID, 1, readySnapshot(wf))
	if err != nil {
		t.Fatalf("plan through two 503s: %v", err)
	}
	if resp.Iteration != 1 {
		t.Errorf("iteration = %d, want 1", resp.Iteration)
	}
	if got := client.Retries(); got != 2 {
		t.Errorf("client retries = %d, want 2", got)
	}
}

// TestClientRetryLostResponseExactlyOnce is the idempotence certificate at
// the client level: the server processes a plan, the network loses the
// response, the client retries — and the controller must still have advanced
// exactly one interval, with the retried response identical to the lost one.
func TestClientRetryLostResponseExactlyOnce(t *testing.T) {
	srv, base := newTestServer(t, Config{})
	client := NewClient(base.BaseURL(),
		WithTransport(&flakyTripper{mode: "drop-response", fails: 1}),
		WithRetry(retryTestPolicy()))
	ctx := context.Background()
	wf := smallWorkflow(3)
	info, err := client.CreateSession(ctx, CreateSessionRequest{Workflow: dagio.Encode(wf)})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Plan(ctx, info.ID, 1, readySnapshot(wf))
	if err != nil {
		t.Fatalf("plan through lost response: %v", err)
	}
	if resp.Seq != 1 || resp.Iteration != 1 {
		t.Errorf("seq/iteration = %d/%d, want 1/1", resp.Seq, resp.Iteration)
	}
	if got := client.Retries(); got != 1 {
		t.Errorf("client retries = %d, want 1", got)
	}
	state, err := client.State(ctx, info.ID)
	if err != nil {
		t.Fatal(err)
	}
	if state.Plans != 1 {
		t.Fatalf("controller advanced %d intervals after a retried lost response, want exactly 1", state.Plans)
	}
	md := srv.Metrics().Dump(srv.now(), srv.Store().Len())
	if md.FaultTolerance.RetriesTotal != 1 {
		t.Errorf("server retries_total = %d, want 1 (retry answered from cache)", md.FaultTolerance.RetriesTotal)
	}
}

// TestClientHonorsCallerContext pins that an expired caller context aborts
// the retry loop instead of sleeping through it.
func TestClientHonorsCallerContext(t *testing.T) {
	_, base := newTestServer(t, Config{})
	client := NewClient(base.BaseURL(),
		WithTransport(&flakyTripper{mode: "503", fails: 1 << 30}),
		WithRetry(RetryPolicy{MaxAttempts: 1 << 20, BaseDelay: 10 * time.Millisecond, MaxDelay: 50 * time.Millisecond}))
	ctx := context.Background()
	wf := smallWorkflow(3)
	info, err := client.CreateSession(ctx, CreateSessionRequest{Workflow: dagio.Encode(wf)})
	if err != nil {
		t.Fatal(err)
	}
	cctx, cancel := context.WithTimeout(ctx, 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err = client.Plan(cctx, info.ID, 1, readySnapshot(wf))
	if err == nil {
		t.Fatal("plan succeeded through permanent 503s")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("retry loop outlived its context by %v", elapsed)
	}
}

// TestClientClampsRetryAfter pins the Retry-After cap: a pathological server
// hint (hours) must not park the retry loop. APIError reports the hint
// clipped to maxRetryAfter, and that is the floor the retry loop sleeps.
func TestClientClampsRetryAfter(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "7200") // two hours
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintf(w, `{"error":"recovering","code":%q}`, CodeShardRecovering)
	}))
	defer ts.Close()

	client := NewClient(ts.URL, WithRetry(RetryPolicy{MaxAttempts: 1}))
	_, err := client.State(context.Background(), "some-session")
	if err == nil {
		t.Fatal("permanent 503 succeeded")
	}
	var ae *APIError
	if !errors.As(err, &ae) {
		t.Fatalf("error %v is not an APIError", err)
	}
	if ae.RetryAfter != maxRetryAfter {
		t.Errorf("RetryAfter = %v, want the %v cap", ae.RetryAfter, maxRetryAfter)
	}
}
