package chaos

import (
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"
)

// InjectedError is the transport-level error reported for injected drops
// and resets. Retrying clients classify it like any other transport error.
type InjectedError struct {
	Kind    FaultKind
	Attempt int64
}

// Error implements error.
func (e *InjectedError) Error() string {
	return fmt.Sprintf("chaos: injected %s (attempt %d)", e.Kind, e.Attempt)
}

// Counts summarizes what a Transport injected.
type Counts struct {
	Attempts         int64 `json:"attempts"`
	DroppedRequests  int64 `json:"dropped_requests"`
	Injected5xx      int64 `json:"injected_5xx"`
	DroppedResponses int64 `json:"dropped_responses"`
	Delayed          int64 `json:"delayed"`
}

// Add accumulates another transport's counts (the scenario runner aggregates across
// per-session transports).
func (c *Counts) Add(o Counts) {
	c.Attempts += o.Attempts
	c.DroppedRequests += o.DroppedRequests
	c.Injected5xx += o.Injected5xx
	c.DroppedResponses += o.DroppedResponses
	c.Delayed += o.Delayed
}

// Transport injects the plan's network faults into one stream of HTTP
// attempts. Wrap it around a client's base transport:
//
//	hc := &http.Client{Transport: plan.Transport(sessionIdx, http.DefaultTransport)}
//
// Fault decisions are drawn per attempt from the stream's private schedule,
// so the k-th attempt always meets the same fate. The
// transport is safe for concurrent use, but concurrent attempts race for
// schedule positions; give each logically independent request stream its
// own Transport (one per session) to keep schedules reproducible.
type Transport struct {
	plan Plan
	next http.RoundTripper

	mu      sync.Mutex
	decider *netDecider
	counts  Counts
}

// Transport builds a fault-injecting RoundTripper for one stream. A nil
// next falls back to http.DefaultTransport.
func (p Plan) Transport(stream int64, next http.RoundTripper) *Transport {
	if next == nil {
		next = http.DefaultTransport
	}
	return &Transport{
		plan:    p,
		next:    next,
		decider: &netDecider{plan: p, rng: p.rng(streamNetwork, uint64(stream))},
	}
}

// Counts returns a snapshot of the injected-fault counters.
func (t *Transport) Counts() Counts {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.counts
}

// RoundTrip implements http.RoundTripper.
func (t *Transport) RoundTrip(req *http.Request) (*http.Response, error) {
	t.mu.Lock()
	t.counts.Attempts++
	attempt := t.counts.Attempts
	f := t.decider.next()
	switch f.Kind {
	case FaultDropRequest:
		t.counts.DroppedRequests++
	case FaultErr5xx:
		t.counts.Injected5xx++
	case FaultDropResponse:
		t.counts.DroppedResponses++
	}
	if f.Delay > 0 {
		t.counts.Delayed++
	}
	t.mu.Unlock()

	if f.Delay > 0 {
		timer := time.NewTimer(f.Delay)
		select {
		case <-timer.C:
		case <-req.Context().Done():
			timer.Stop()
			return nil, req.Context().Err()
		}
	}

	switch f.Kind {
	case FaultDropRequest:
		// The request never leaves the client: connection refused.
		return nil, &InjectedError{Kind: f.Kind, Attempt: attempt}
	case FaultErr5xx:
		// A dying proxy answers without forwarding.
		return &http.Response{
			Status:     "503 Service Unavailable",
			StatusCode: http.StatusServiceUnavailable,
			Proto:      "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1,
			Header:  http.Header{"Content-Type": []string{"text/plain"}},
			Body:    io.NopCloser(strings.NewReader("chaos: injected 503\n")),
			Request: req,
		}, nil
	case FaultDropResponse:
		// Deliver the request — the server processes it — then lose the
		// response: the connection "resets" after the write.
		resp, err := t.next.RoundTrip(req)
		if err != nil {
			return nil, err
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return nil, &InjectedError{Kind: f.Kind, Attempt: attempt}
	default:
		return t.next.RoundTrip(req)
	}
}
