package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/service"
)

// tally counts operations across goroutines. Every request the benchmark
// sends is attempted; one that errors, answers non-2xx where success was
// due, or returns a decision that differs from the twin's is failed. Nothing
// is dropped from the count.
type tally struct {
	attempted atomic.Int64
	failed    atomic.Int64

	mu   sync.Mutex
	errs []string
}

func (t *tally) fail(format string, args ...any) {
	t.failed.Add(1)
	t.mu.Lock()
	if len(t.errs) < 8 {
		t.errs = append(t.errs, fmt.Sprintf(format, args...))
	}
	t.mu.Unlock()
}

// replayer drives recorded sessions through a service.Client.
type replayer struct {
	client *service.Client
	// rec, when set, lets sessions be traced: spans are opened around a
	// traced session's plans and ride the Bench-Span header down the stack.
	// Callers trace every second session; the bare ones in between run on
	// the same stack at the same time, which is what the tracing overhead is
	// measured against.
	rec   *recorder
	tally *tally
	// dirs are the journal directories a session's WAL may live in.
	dirs []string
	// tenants, when non-empty, tags every create with a drawn tenant.
	tenants []string
}

// liveSession is a session part-way through its recorded stream.
type liveSession struct {
	st     *stream
	id     string
	next   int // index of the next snapshot to plan
	traced bool
}

func (ls *liveSession) remaining() int { return len(ls.st.Snaps) - ls.next }

// create opens a session for st, traced if asked and a recorder is set. With
// tenants configured it draws one from rng; a 429 tenant_throttled is the
// gate working — it is counted and the create re-issued under the next
// tenant. A create no tenant admits fails.
func (r *replayer) create(ctx context.Context, st *stream, rng *rand.Rand, traced bool) (ls *liveSession, throttled int) {
	tries := 1
	first := 0
	if n := len(r.tenants); n > 0 {
		tries = n
		first = rng.Intn(n)
	}
	for k := 0; k < tries; k++ {
		tenant := ""
		if len(r.tenants) > 0 {
			tenant = r.tenants[(first+k)%len(r.tenants)]
		}
		r.tally.attempted.Add(1)
		info, err := r.client.CreateSession(ctx, st.createRequest(tenant))
		if err == nil {
			return &liveSession{st: st, id: info.ID, traced: traced && r.rec != nil}, throttled
		}
		var ae *service.APIError
		if errors.As(err, &ae) && ae.StatusCode == http.StatusTooManyRequests && ae.Code == service.CodeTenantThrottled {
			throttled++
			continue
		}
		r.tally.fail("create %s/%d: %v", st.Key, st.Seed, err)
		return nil, throttled
	}
	r.tally.fail("create %s/%d: throttled under every tenant", st.Key, st.Seed)
	return nil, throttled
}

// planOnce sends the session's next snapshot without touching the tally and
// checks the reply against the twin. It advances the session on success.
func (r *replayer) planOnce(ctx context.Context, ls *liveSession) (time.Duration, error) {
	i := ls.next
	var ref spanRef
	var start time.Time
	if ls.traced {
		ref, start = r.rec.open(spanRef{})
		ctx = withSpan(ctx, ref)
	} else {
		start = time.Now()
	}
	resp, err := r.client.Plan(ctx, ls.id, int64(i+1), ls.st.Snaps[i])
	took := time.Since(start)
	if ls.traced {
		r.rec.close("service.client.plan_ms", ref, spanRef{}, start)
	}
	if err != nil {
		return took, err
	}
	got, err := json.Marshal(resp.Decision)
	if err != nil {
		return took, err
	}
	if resp.Seq != int64(i+1) || !bytes.Equal(got, ls.st.Want[i]) {
		return took, fmt.Errorf("decision mismatch at seq %d: got %s (seq %d), twin %s", i+1, got, resp.Seq, ls.st.Want[i])
	}
	ls.next++
	return took, nil
}

// plan is planOnce counted as one operation.
func (r *replayer) plan(ctx context.Context, ls *liveSession) (time.Duration, bool) {
	r.tally.attempted.Add(1)
	took, err := r.planOnce(ctx, ls)
	if err != nil {
		r.tally.fail("plan %s/%d session %s: %v", ls.st.Key, ls.st.Seed, ls.id, err)
		return took, false
	}
	return took, true
}

func (r *replayer) delete(ctx context.Context, ls *liveSession) bool {
	r.tally.attempted.Add(1)
	if err := r.client.DeleteSession(ctx, ls.id); err != nil {
		r.tally.fail("delete session %s: %v", ls.id, err)
		return false
	}
	return true
}

// loopStats is what one closed-loop worker measured.
type loopStats struct {
	planDone   []time.Time
	planMS     []float64
	planTraced []bool

	sessionDone []time.Time
	sessionMS   []float64
	createMS    []float64
	deleteMS    []float64

	creates   int64
	throttled int64
	walBytes  int64
	walPlans  int64
}

func (a *loopStats) merge(b *loopStats) {
	a.planDone = append(a.planDone, b.planDone...)
	a.planMS = append(a.planMS, b.planMS...)
	a.planTraced = append(a.planTraced, b.planTraced...)
	a.sessionDone = append(a.sessionDone, b.sessionDone...)
	a.sessionMS = append(a.sessionMS, b.sessionMS...)
	a.createMS = append(a.createMS, b.createMS...)
	a.deleteMS = append(a.deleteMS, b.deleteMS...)
	a.creates += b.creates
	a.throttled += b.throttled
	a.walBytes += b.walBytes
	a.walPlans += b.walPlans
}

// window keeps the samples that completed inside [from, to).
func (a *loopStats) window(from, to time.Time) *loopStats {
	out := &loopStats{creates: a.creates, throttled: a.throttled, walBytes: a.walBytes, walPlans: a.walPlans,
		createMS: a.createMS, deleteMS: a.deleteMS}
	for i, t := range a.planDone {
		if !t.Before(from) && t.Before(to) {
			out.planDone = append(out.planDone, t)
			out.planMS = append(out.planMS, a.planMS[i])
			out.planTraced = append(out.planTraced, a.planTraced[i])
		}
	}
	for i, t := range a.sessionDone {
		if !t.Before(from) && t.Before(to) {
			out.sessionDone = append(out.sessionDone, t)
			out.sessionMS = append(out.sessionMS, a.sessionMS[i])
		}
	}
	return out
}

// split returns the plan latencies of traced and of bare sessions.
func (a *loopStats) split() (traced, bare []float64) {
	for i, v := range a.planMS {
		if a.planTraced[i] {
			traced = append(traced, v)
		} else {
			bare = append(bare, v)
		}
	}
	return traced, bare
}

// overheadFrac is the tracing overhead as a share of throughput: a closed
// loop's rate is the inverse of its latency, so 1 − bare/traced medians.
func overheadFrac(traced, bare []float64) float64 {
	if len(traced) == 0 || len(bare) == 0 {
		return 0
	}
	return 1 - median(bare)/median(traced)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// closedLoop runs `workers` callers until `until`. Each caller takes the
// next recorded session, creates it, plans it interval by interval — waiting
// for each decision before sending the next snapshot, as a MAPE loop does —
// and deletes it. Callers past `until` stop mid-session and clean up.
//
// With overlap, a caller deletes a session only after creating the next
// one, the way a tenant's runs overlap in practice: two sessions are live at
// each create, so a create that draws the live one's tenant on the live
// one's shard meets the MaxActive gate.
func closedLoop(r *replayer, streams []*stream, workers int, overlap bool, seed int64, until time.Time) *loopStats {
	var next atomic.Int64
	parts := make([]*loopStats, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ls := &loopStats{}
			parts[w] = ls
			rng := rand.New(rand.NewSource(seed + int64(w)*7919))
			ctx := context.Background()
			var prev *liveSession
			drop := func(sess *liveSession) {
				t := time.Now()
				if r.delete(ctx, sess) {
					ls.deleteMS = append(ls.deleteMS, ms(time.Since(t)))
				}
			}
			for time.Now().Before(until) {
				// Every second session is traced. With an even number of
				// streams the parity flips on each pass over them, so that
				// no stream is always the traced or always the bare one.
				n := int(next.Add(1) - 1)
				st := streams[n%len(streams)]
				flip := 0
				if len(streams)%2 == 0 {
					flip = n / len(streams)
				}
				t0 := time.Now()
				sess, throttled := r.create(ctx, st, rng, (n+flip)%2 == 0)
				ls.creates++
				ls.throttled += int64(throttled)
				if sess != nil {
					ls.createMS = append(ls.createMS, ms(time.Since(t0)))
				}
				if prev != nil {
					drop(prev)
					prev = nil
				}
				if sess == nil {
					continue
				}
				ok := true
				for ok && sess.remaining() > 0 && time.Now().Before(until) {
					var took time.Duration
					took, ok = r.plan(ctx, sess)
					if ok {
						ls.planDone = append(ls.planDone, time.Now())
						ls.planMS = append(ls.planMS, ms(took))
						ls.planTraced = append(ls.planTraced, sess.traced)
					}
				}
				whole := ok && sess.remaining() == 0
				if whole && len(r.dirs) > 0 {
					// Deleting a session removes its WAL, so the bytes are
					// read off the file just before.
					if n, err := walSize(sess.id, r.dirs); err != nil {
						r.tally.fail("%v", err)
					} else {
						ls.walBytes += n
						ls.walPlans += int64(len(st.Snaps))
					}
				}
				if overlap {
					prev = sess
				} else {
					drop(sess)
				}
				if whole {
					ls.sessionDone = append(ls.sessionDone, time.Now())
					ls.sessionMS = append(ls.sessionMS, ms(time.Since(t0)))
				}
			}
			if prev != nil {
				drop(prev)
			}
		}(w)
	}
	wg.Wait()
	total := &loopStats{}
	for _, p := range parts {
		total.merge(p)
	}
	return total
}
