package main

import (
	"context"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// spanHeader carries "<request id>-<span id>" across a hop so the span
// opened on the far side names the one that caused it.
const spanHeader = "Bench-Span"

// span is one timed interval at a layer boundary. Start and End are
// nanoseconds since the recorder was created.
type span struct {
	Name   string `json:"name"`
	Req    uint64 `json:"req"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder keeps spans in memory until the run ends. An untraced run has
// none: no wrapper is installed and no span opened.
type recorder struct {
	t0   time.Time
	next atomic.Uint64

	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// spanRef identifies an open span; the zero value means "no span".
type spanRef struct{ req, id uint64 }

type spanCtxKey struct{}

func withSpan(ctx context.Context, ref spanRef) context.Context {
	return context.WithValue(ctx, spanCtxKey{}, ref)
}

func spanFrom(ctx context.Context) spanRef {
	ref, _ := ctx.Value(spanCtxKey{}).(spanRef)
	return ref
}

// open starts a span under parent (a zero parent starts a new request).
func (r *recorder) open(parent spanRef) (spanRef, time.Time) {
	id := r.next.Add(1)
	req := parent.req
	if req == 0 {
		req = id
	}
	return spanRef{req: req, id: id}, time.Now()
}

func (r *recorder) close(name string, ref, parent spanRef, start time.Time) {
	end := time.Now()
	r.mu.Lock()
	r.spans = append(r.spans, span{
		Name: name, Req: ref.req, ID: ref.id, Parent: parent.id,
		Start: start.Sub(r.t0).Nanoseconds(), End: end.Sub(r.t0).Nanoseconds(),
	})
	r.mu.Unlock()
}

// add records an already-measured interval as a request of its own (the
// phases of a simulator pair or of a failover cycle).
func (r *recorder) add(name string, start, end time.Time) {
	ref, _ := r.open(spanRef{})
	r.mu.Lock()
	r.spans = append(r.spans, span{
		Name: name, Req: ref.req, ID: ref.id,
		Start: start.Sub(r.t0).Nanoseconds(), End: end.Sub(r.t0).Nanoseconds(),
	})
	r.mu.Unlock()
}

func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

func formatSpanHeader(ref spanRef) string {
	return strconv.FormatUint(ref.req, 10) + "-" + strconv.FormatUint(ref.id, 10)
}

func parseSpanHeader(h string) spanRef {
	a, b, ok := strings.Cut(h, "-")
	if !ok {
		return spanRef{}
	}
	req, err1 := strconv.ParseUint(a, 10, 64)
	id, err2 := strconv.ParseUint(b, 10, 64)
	if err1 != nil || err2 != nil {
		return spanRef{}
	}
	return spanRef{req: req, id: id}
}

// spanTransport opens a span around every round trip whose context carries
// a parent span and stamps its id on the outgoing request. Requests without
// a parent pass through untimed, except those to a path in roots, which
// start a request of their own under the name given there (the router's
// failover goroutine calls a peer's adopt endpoint on no caller's behalf).
type spanTransport struct {
	rec   *recorder
	name  string
	base  http.RoundTripper
	roots map[string]string
}

func (t *spanTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	parent := spanFrom(req.Context())
	if parent.id == 0 {
		if name, ok := t.roots[req.URL.Path]; ok {
			ref, start := t.rec.open(spanRef{})
			resp, err := t.base.RoundTrip(req)
			t.rec.close(name, ref, spanRef{}, start)
			return resp, err
		}
		return t.base.RoundTrip(req)
	}
	ref, start := t.rec.open(parent)
	req.Header.Set(spanHeader, formatSpanHeader(ref))
	resp, err := t.base.RoundTrip(req)
	t.rec.close(t.name, ref, parent, start)
	return resp, err
}

// spanHandler opens a span around every request that arrives with a span
// header, and hands its id on through the request context (the router
// forwards with the inbound context, so its upstream transport sees it).
func spanHandler(rec *recorder, name string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		parent := parseSpanHeader(r.Header.Get(spanHeader))
		if parent.id == 0 {
			h.ServeHTTP(w, r)
			return
		}
		ref, start := rec.open(parent)
		h.ServeHTTP(w, r.WithContext(withSpan(r.Context(), ref)))
		rec.close(name, ref, parent, start)
	})
}

// selfTimes returns, per span name, each span's self time in nanoseconds:
// its duration minus the part of its interval covered by the union of its
// direct children (children are clipped to the parent, and overlapping
// children are counted once).
func selfTimes(spans []span) map[string][]float64 {
	children := make(map[uint64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string][]float64)
	for _, s := range spans {
		out[s.Name] = append(out[s.Name], float64(s.End-s.Start-coveredNS(s, children[s.ID])))
	}
	return out
}

// coveredNS is the length of the union of kids' intervals inside parent.
func coveredNS(parent span, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := k.Start, k.End
		if lo < parent.Start {
			lo = parent.Start
		}
		if hi > parent.End {
			hi = parent.End
		}
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var covered, end int64
	end = parent.Start
	for _, v := range iv {
		if v[0] > end {
			end = v[0]
		}
		if v[1] > end {
			covered += v[1] - end
			end = v[1]
		}
	}
	return covered
}

// durations returns, per span name, each span's full duration in ns.
func durations(spans []span) map[string][]float64 {
	out := make(map[string][]float64)
	for _, s := range spans {
		out[s.Name] = append(out[s.Name], float64(s.End-s.Start))
	}
	return out
}

// writeTrace dumps the spans as one JSON document.
func writeTrace(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(struct {
		Spans []span `json:"spans"`
	}{spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
