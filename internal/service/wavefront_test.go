package service

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/monitor"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// pendingPredictions is the wavefront as the plan path derived it before the
// controller exposed it: the whole prediction log, filtered down to the tasks
// that had not started as of the snapshot. It is the reference the grouped
// response is compared against.
func pendingPredictions(dump core.StateDump, snap *monitor.Snapshot) []core.PredictionState {
	var out []core.PredictionState
	for _, p := range dump.Predictions {
		if int(p.Task) >= len(snap.Tasks) {
			continue
		}
		if st := snap.Tasks[p.Task].State; st == monitor.Blocked || st == monitor.Ready {
			out = append(out, p)
		}
	}
	return out
}

// bodyTap keeps the body of the last plan response that crossed it.
type bodyTap struct{ last []byte }

func (b *bodyTap) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := http.DefaultTransport.RoundTrip(req)
	if err != nil || !strings.HasSuffix(req.URL.Path, "/plan") {
		return resp, err
	}
	b.last, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	resp.Body = io.NopCloser(bytes.NewReader(b.last))
	return resp, err
}

// remoteAgainstTwin is a sim.Controller that plans every interval twice — on
// an in-process WIRE controller and, over HTTP, on a daemon session — and
// holds the daemon's response to the twin's per-task state.
type remoteAgainstTwin struct {
	t      *testing.T
	key    string
	twin   *core.Controller
	client *Client
	tap    *bodyTap
	id     string
	seq    int64
	bodies [][]byte
	groups int
	tasks  int
}

func (r *remoteAgainstTwin) Name() string { return "remote-against-twin" }

func (r *remoteAgainstTwin) Plan(snap *monitor.Snapshot) sim.Decision {
	t := r.t
	want := r.twin.Plan(snap)
	r.seq++
	resp, err := r.client.Plan(context.Background(), r.id, r.seq, snap)
	if err != nil {
		t.Fatalf("%s seq %d: %v", r.key, r.seq, err)
	}
	if resp.Seq != r.seq || resp.Degraded || !sameDecision(resp.Decision, want) {
		t.Fatalf("%s seq %d: served %+v (seq %d, degraded %v), the twin decided %+v", r.key, r.seq, resp.Decision, resp.Seq, resp.Degraded, want)
	}
	ref := pendingPredictions(r.twin.State(), snap)
	if got := expandPredictions(resp.Predictions); !reflect.DeepEqual(got, ref) {
		t.Fatalf("%s seq %d: the response expands to %d prediction(s), the twin's per-task wavefront has %d, or they differ", r.key, r.seq, len(got), len(ref))
	}
	// The point of the format: one record per distinct estimate, not per task.
	type triple struct {
		stage  dag.StageID
		policy string
		est    float64
	}
	distinct := map[triple]bool{}
	for _, p := range ref {
		distinct[triple{p.Stage, p.Policy, p.Estimated}] = true
	}
	if len(resp.Predictions) != len(distinct) {
		t.Fatalf("%s seq %d: %d group(s) for %d distinct (stage, policy, estimate) among %d pending task(s)",
			r.key, r.seq, len(resp.Predictions), len(distinct), len(ref))
	}
	r.bodies = append(r.bodies, r.tap.last)
	r.groups += len(resp.Predictions)
	r.tasks += len(ref)
	return want
}

// TestGroupedWavefrontEqualsPerTaskTwin drives a journaling daemon over HTTP
// through every plan of six catalogue runs beside an in-process twin: on each
// response the decision is the twin's, the groups expand to exactly the
// per-task wavefront the twin's State() gives (the derivation the plan path
// used before), there is one group per distinct (stage, policy, estimate),
// and the WAL record's response bytes are the body the client was sent.
func TestGroupedWavefrontEqualsPerTaskTwin(t *testing.T) {
	for _, key := range []string{"genome-l", "genome-s", "tpch1-l", "pagerank-l", "tpch6-l", "pagerank-s"} {
		t.Run(key, func(t *testing.T) {
			run, ok := workloads.ByKey(key)
			if !ok {
				t.Fatalf("unknown catalogue key %q", key)
			}
			dir := t.TempDir()
			_, base := newTestServer(t, Config{JournalDir: dir})
			tap := &bodyTap{}
			client := NewClient(base.BaseURL(), WithTransport(tap))
			info, err := client.CreateSession(context.Background(), CreateSessionRequest{WorkflowKey: key, WorkflowSeed: 1})
			if err != nil {
				t.Fatal(err)
			}
			r := &remoteAgainstTwin{t: t, key: key, twin: core.New(core.Config{}), client: client, tap: tap, id: info.ID}
			if _, err := sim.Run(run.Generate(1), r, paperSite(1)); err != nil {
				t.Fatal(err)
			}
			if len(r.bodies) == 0 || r.tasks == 0 {
				t.Fatalf("%d plan(s) with %d pending prediction(s): nothing was compared", len(r.bodies), r.tasks)
			}
			wal, err := os.ReadFile(filepath.Join(dir, info.ID+".wal"))
			if err != nil {
				t.Fatal(err)
			}
			journaled, _ := walResponses(t, wal)
			if len(journaled) != len(r.bodies) {
				t.Fatalf("%d plan record(s) journaled, %d plan(s) served", len(journaled), len(r.bodies))
			}
			for i := range journaled {
				if !bytes.Equal(journaled[i], bytes.TrimSuffix(r.bodies[i], []byte{'\n'})) {
					t.Fatalf("seq %d: the journaled response is not the body that was served\nwal:  %s\nbody: %s",
						i+1, firstDiff(journaled[i], r.bodies[i]), firstDiff(r.bodies[i], journaled[i]))
				}
			}
			t.Logf("%-10s %2d plans: %5d per-task predictions in %3d group(s)", key, len(r.bodies), r.tasks, r.groups)
		})
	}
}

// expandPredictions returns the per-task wavefront a plan response's groups
// stand for, in task-id order: the controller's latest pre-start estimate for
// every task that had not started as of the posted snapshot.
func expandPredictions(groups []PredictionGroup) []core.PredictionState {
	n := 0
	for i := range groups {
		n += len(groups[i].Tasks)
	}
	if n == 0 {
		return nil
	}
	out := make([]core.PredictionState, 0, n)
	for i := range groups {
		g := &groups[i]
		for _, id := range g.Tasks {
			out = append(out, core.PredictionState{Task: id, Stage: g.Stage, Estimated: g.Estimated, Policy: g.Policy, At: g.At})
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Task < out[j].Task })
	return out
}
