package service

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/cloud"
	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/dagio"
	"repro/internal/dist"
	"repro/internal/monitor"
	"repro/internal/predict"
	"repro/internal/sim"
	"repro/internal/simtime"
	"repro/internal/workloads"
)

// referencePlanRecord is the format contract: the line json.Encoder wrote for
// a plan record before the framer existed.
func referencePlanRecord(seq int64, snap *monitor.Snapshot, resp *PlanResponse) ([]byte, error) {
	var buf bytes.Buffer
	err := json.NewEncoder(&buf).Encode(walRecord{Type: "plan", Seq: seq, Snapshot: snap, Response: resp})
	return buf.Bytes(), err
}

// framedPlanRecord encodes the way a Go client and handlePlan do between
// them: the snapshot as the client posts it, the response once, then the
// record framed around those bytes.
func framedPlanRecord(seq int64, snap *monitor.Snapshot, resp *PlanResponse) ([]byte, error) {
	snapJSON, err := monitor.AppendSnapshotJSON(nil, snap)
	if err != nil {
		return nil, err
	}
	respJSON, err := resp.AppendJSON(nil)
	if err != nil {
		return nil, err
	}
	return appendPlanRecord(nil, seq, snapJSON, respJSON), nil
}

// requireSameFraming holds the framer to the reference on one record: the
// same bytes, or an error from both.
func requireSameFraming(t testing.TB, seq int64, snap *monitor.Snapshot, resp *PlanResponse) {
	t.Helper()
	want, wantErr := referencePlanRecord(seq, snap, resp)
	got, gotErr := framedPlanRecord(seq, snap, resp)
	if (wantErr != nil) != (gotErr != nil) {
		t.Fatalf("seq %d: json.Encoder error %v, framer error %v", seq, wantErr, gotErr)
	}
	if wantErr == nil && !bytes.Equal(got, want) {
		t.Fatalf("seq %d: framed record differs from json.Encoder's\nframed:  %s\nencoder: %s",
			seq, firstDiff(got, want), firstDiff(want, got))
	}
}

// firstDiff returns a's bytes around the first position where it departs
// from b.
func firstDiff(a, b []byte) string {
	i := 0
	for i < len(a) && i < len(b) && a[i] == b[i] {
		i++
	}
	lo, hi := max(i-40, 0), min(i+40, len(a))
	return "…" + string(a[lo:hi]) + "…"
}

// planRecorder is a sim.Controller that plans through a detached session the
// way handlePlan does and hands each interval to fn.
type planRecorder struct {
	sess *Session
	fn   func(seq int64, lean *monitor.Snapshot, resp *PlanResponse)
}

func (p *planRecorder) Name() string { return "plan-recorder" }

func (p *planRecorder) Plan(snap *monitor.Snapshot) sim.Decision {
	dec, degraded, err := planStep(p.sess, snap)
	if err != nil {
		panic(err)
	}
	// A grouper of its own per plan: callers keep the responses.
	var g wavefrontGrouper
	preds := g.fold(p.sess.ctrl.(wavefronter).Wavefront())
	p.sess.lastSeq++
	lean := *snap
	lean.Workflow = nil
	p.fn(p.sess.lastSeq, &lean, &PlanResponse{
		SessionID:   p.sess.ID,
		Iteration:   p.sess.plans.Add(1),
		Seq:         p.sess.lastSeq,
		Decision:    dec,
		Degraded:    degraded,
		Predictions: preds,
	})
	return dec
}

// paperSite is the simulation the recorded streams run on: the paper's site.
func paperSite(seed int64) sim.Config {
	site := cloud.Config{SlotsPerInstance: 4, LagTime: 180, ChargingUnit: 900, MaxInstances: 12}
	return sim.Config{Cloud: site, Seed: seed, Interference: dist.NewLognormalFromMean(1, 0.05)}
}

// recordPlans simulates one catalogue run on the paper's site under WIRE and
// calls fn with every plan interval's journal inputs. The snapshot is the
// simulator's own and only valid during the call.
func recordPlans(t testing.TB, key string, seed int64, fn func(seq int64, lean *monitor.Snapshot, resp *PlanResponse)) {
	t.Helper()
	run, ok := workloads.ByKey(key)
	if !ok {
		t.Fatalf("unknown catalogue key %q", key)
	}
	wf := run.Generate(seed)
	ctrl, err := NewPolicyController("wire", nil)
	if err != nil {
		t.Fatal(err)
	}
	rec := &planRecorder{sess: &Session{ID: "rec-" + key, Policy: "wire", Workflow: wf, ctrl: ctrl}, fn: fn}
	if _, err := sim.Run(wf, rec, paperSite(seed)); err != nil {
		t.Fatalf("recording %s/%d: %v", key, seed, err)
	}
}

// TestPlanRecordFramingMatchesEncoder is the differential test behind the
// encode-once write path: for every plan of every catalogue workflow's
// recorded stream, the framed record is byte for byte what json.Encoder wrote
// before. It also reports the sizes maxPooledBuf is derived from and holds
// the ceiling to them.
func TestPlanRecordFramingMatchesEncoder(t *testing.T) {
	var maxSnap, maxRec int
	for _, key := range workloads.Keys() {
		plans, keySnap, keyResp, keyRec := 0, 0, 0, 0
		recordPlans(t, key, 1, func(seq int64, lean *monitor.Snapshot, resp *PlanResponse) {
			requireSameFraming(t, seq, lean, resp)
			plans++
			snapJSON, _ := monitor.AppendSnapshotJSON(nil, lean)
			respJSON, _ := resp.AppendJSON(nil)
			rec := appendPlanRecord(nil, seq, snapJSON, respJSON)
			keySnap, keyResp, keyRec = max(keySnap, len(snapJSON)), max(keyResp, len(respJSON)), max(keyRec, len(rec))
			if over := len(rec) - len(snapJSON) - len(respJSON); over > planRecordOverhead {
				t.Fatalf("%s seq %d: framing adds %d bytes, planRecordOverhead is %d", key, seq, over, planRecordOverhead)
			}
		})
		if plans == 0 {
			t.Fatalf("%s: recorded no plans", key)
		}
		t.Logf("%-10s %3d plans; largest snapshot %7d B, response %7d B, record %7d B", key, plans, keySnap, keyResp, keyRec)
		maxSnap, maxRec = max(maxSnap, keySnap), max(maxRec, keyRec)
	}
	// reserve gives a buffer an eighth more than it was asked for; the largest
	// catalogue record and snapshot body must stay poolable with it.
	if need := max(maxRec, maxSnap+bytes.MinRead); need+need/8 > maxPooledBuf {
		t.Errorf("maxPooledBuf = %d drops the buffers of the largest catalogue plan (snapshot %d B, record %d B)",
			maxPooledBuf, maxSnap, maxRec)
	}
}

// edgeSnapshot is a small lean snapshot with one of everything.
func edgeSnapshot() *monitor.Snapshot {
	return &monitor.Snapshot{
		Now: 360, Interval: 180, ChargingUnit: 900, LagTime: 180, SlotsPerInstance: 4, MaxInstances: 12,
		Tasks: []monitor.TaskRecord{
			{ID: 0, Stage: 0, State: monitor.Completed, InputSize: 12.5, ReadyAt: 1e-7, StartedAt: 3, Instance: 1, Slot: 2,
				TransferObserved: true, TransferTime: 0.25, CompletedAt: 40, ExecTime: 36.75},
			{ID: 1, Stage: 1, State: monitor.Running, Elapsed: 1e21, Instance: 1},
			{ID: 2, Stage: 1, State: monitor.Ready},
			{ID: 3, Stage: 2, State: monitor.Blocked},
		},
		Instances: []monitor.InstanceRecord{
			{ID: 1, State: cloud.Active, Slots: 4, RequestedAt: 0.5, ActiveAt: 180, TimeToNextCharge: 720, Running: []dag.TaskID{1}},
			{ID: 2, State: cloud.Pending, Slots: 4, Draining: true},
		},
		RecentTransfers: []float64{0.25, 3},
	}
}

// TestPlanRecordFramingEdgeShapes runs the differential check over the shapes
// the recorded streams do not reach.
func TestPlanRecordFramingEdgeShapes(t *testing.T) {
	pred := func(policy string, est, at float64) PredictionGroup {
		return PredictionGroup{Stage: 1, Estimated: simtime.Duration(est), Policy: policy, At: simtime.Time(at), Tasks: []dag.TaskID{2, 3}}
	}
	noInstances := edgeSnapshot()
	noInstances.Instances = nil
	emptyInstances := edgeSnapshot()
	emptyInstances.Instances = []monitor.InstanceRecord{}
	nilTasks := edgeSnapshot()
	nilTasks.Tasks, nilTasks.MaxInstances = nil, 0
	emptyTasks := edgeSnapshot()
	emptyTasks.Tasks = []monitor.TaskRecord{}
	nanSnap := edgeSnapshot()
	nanSnap.RecentTransfers = []float64{math.NaN()}
	badState := edgeSnapshot()
	badState.Tasks[0].State = monitor.TaskState(99)

	cases := []struct {
		name string
		seq  int64
		snap *monitor.Snapshot
		resp *PlanResponse
	}{
		{"plain", 7, edgeSnapshot(), &PlanResponse{SessionID: "abc", Iteration: 7, Seq: 7, Decision: sim.Decision{Launch: 2}}},
		{"degraded", 3, edgeSnapshot(), &PlanResponse{SessionID: "abc", Iteration: 3, Seq: 3, Degraded: true}},
		{"nil predictions and releases", 1, edgeSnapshot(), &PlanResponse{SessionID: "abc", Seq: 1}},
		{"empty predictions and releases", 1, edgeSnapshot(), &PlanResponse{SessionID: "abc", Seq: 1,
			Decision: sim.Decision{Releases: []sim.ReleaseOrder{}}, Predictions: []PredictionGroup{}}},
		{"groups with nil and empty task lists", 1, edgeSnapshot(), &PlanResponse{SessionID: "abc", Seq: 1,
			Predictions: []PredictionGroup{{Stage: 1, Policy: "p"}, {Stage: 2, Policy: "p", Tasks: []dag.TaskID{}}}}},
		{"releases", 2, edgeSnapshot(), &PlanResponse{SessionID: "abc", Seq: 2, Decision: sim.Decision{Launch: -1,
			Releases: []sim.ReleaseOrder{{Instance: 4}, {Instance: 9, AtBoundary: true}}}}},
		{"no instances", 2, noInstances, &PlanResponse{SessionID: "abc", Seq: 2}},
		{"empty instances", 2, emptyInstances, &PlanResponse{SessionID: "abc", Seq: 2}},
		{"nil tasks, no instance cap", 2, nilTasks, &PlanResponse{SessionID: "abc", Seq: 2}},
		{"empty tasks", 2, emptyTasks, &PlanResponse{SessionID: "abc", Seq: 2}},
		{"seq zero is omitted", 0, edgeSnapshot(), &PlanResponse{SessionID: "abc"}},
		{"negative and huge seq", math.MinInt64, edgeSnapshot(), &PlanResponse{SessionID: "abc", Iteration: math.MaxInt64, Seq: math.MinInt64}},
		{"strings needing JSON and HTML escapes", 4, edgeSnapshot(), &PlanResponse{
			SessionID: "<a href=\"x\">&\\  \x00\x1f\t\n é \xff\xfe",
			Seq:       4,
			Predictions: []PredictionGroup{
				pred("policy-2 <median> & \"quoted\"", 12.5, 360),
				pred(" line\\sep\r\n", 1e-9, 1e22),
				pred("", 0, 0),
			}}},
		{"non-finite estimate", 5, edgeSnapshot(), &PlanResponse{SessionID: "abc", Seq: 5,
			Predictions: []PredictionGroup{pred("p", math.NaN(), 1)}}},
		{"infinite at", 5, edgeSnapshot(), &PlanResponse{SessionID: "abc", Seq: 5,
			Predictions: []PredictionGroup{pred("p", 1, math.Inf(-1))}}},
		{"non-finite snapshot float", 6, nanSnap, &PlanResponse{SessionID: "abc", Seq: 6}},
		{"unknown task state", 6, badState, &PlanResponse{SessionID: "abc", Seq: 6}},
	}
	// The shapes neither encoder may accept must actually be refused: a framer
	// that emitted a placeholder for NaN would still "match" if the reference
	// check were ever loosened.
	refused := map[string]bool{"non-finite estimate": true, "infinite at": true,
		"non-finite snapshot float": true, "unknown task state": true}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			requireSameFraming(t, tc.seq, tc.snap, tc.resp)
			if _, err := framedPlanRecord(tc.seq, tc.snap, tc.resp); (err != nil) != refused[tc.name] {
				t.Errorf("framer error = %v, want refused = %v", err, refused[tc.name])
			}
		})
	}
}

// FuzzPlanRecordFraming drives the differential check from fuzzed field
// values: whatever the inputs, the framer and json.Encoder agree on the bytes
// or both refuse.
func FuzzPlanRecordFraming(f *testing.F) {
	f.Add(int64(1), int64(1), "0123abcd", 2, true, uint8(3), uint8(2), "policy-1", 12.5, 360.0, uint8(4), uint8(2), 180.0)
	f.Add(int64(0), int64(-5), "<&> ", -1, false, uint8(0), uint8(0), "\"\\\x00\xff", math.NaN(), math.Inf(1), uint8(0), uint8(0), 1e-9)
	f.Add(int64(math.MaxInt64), int64(9), "", 0, false, uint8(1), uint8(9), "é", 1e21, -0.0, uint8(9), uint8(1), 1e300)
	f.Fuzz(func(t *testing.T, seq, iteration int64, sessionID string, launch int, degraded bool,
		nReleases, nPreds uint8, policy string, est, at float64, nTasks, nInstances uint8, now float64) {
		resp := &PlanResponse{SessionID: sessionID, Iteration: iteration, Seq: seq, Degraded: degraded,
			Decision: sim.Decision{Launch: launch}}
		for i := 0; i < int(nReleases%8); i++ {
			resp.Decision.Releases = append(resp.Decision.Releases,
				sim.ReleaseOrder{Instance: cloud.InstanceID(i * launch), AtBoundary: i%2 == 1})
		}
		for i := 0; i < int(nPreds%8); i++ {
			g := PredictionGroup{
				Stage: dag.StageID(int(nPreds) - i), Policy: policy[:len(policy)*i/8],
				Estimated: simtime.Duration(est * float64(i+1)), At: simtime.Time(at),
			}
			// Task lists of every length from nil and empty up.
			if n := (int(nPreds) + i) % 5; n > 0 {
				g.Tasks = make([]dag.TaskID, n-1)
				for j := range g.Tasks {
					g.Tasks[j] = dag.TaskID(i*8 + j)
				}
			}
			resp.Predictions = append(resp.Predictions, g)
		}
		if nPreds == 8 {
			resp.Predictions = []PredictionGroup{}
		}
		snap := &monitor.Snapshot{Now: simtime.Time(now), Interval: simtime.Duration(at), ChargingUnit: 900,
			LagTime: simtime.Duration(est), SlotsPerInstance: launch, MaxInstances: int(nInstances) / 3}
		for i := 0; i < int(nTasks%16); i++ {
			snap.Tasks = append(snap.Tasks, monitor.TaskRecord{
				ID: dag.TaskID(i), Stage: dag.StageID(i % 3), State: monitor.TaskState(i % 6),
				InputSize: est / float64(i+1), ReadyAt: simtime.Time(now), Elapsed: simtime.Duration(at * float64(i)),
				Instance: cloud.InstanceID(i % 2), TransferObserved: i%3 == 0, ExecTime: simtime.Duration(now),
			})
		}
		for i := 0; i < int(nInstances%6); i++ {
			snap.Instances = append(snap.Instances, monitor.InstanceRecord{
				ID: cloud.InstanceID(i), State: cloud.State(i % 4), Slots: launch, ActiveAt: simtime.Time(at),
				TimeToNextCharge: simtime.Duration(now), Running: make([]dag.TaskID, i%3), Draining: i%2 == 0,
			})
			snap.RecentTransfers = append(snap.RecentTransfers, est)
		}
		requireSameFraming(t, seq, snap, resp)
		requireOldShapeDecodes(t, resp)
	})
}

// requireOldShapeDecodes writes resp the way builds before the grouped
// wavefront did — one prediction record per task — and requires that body to
// decode to the wavefront the grouped body decodes to.
func requireOldShapeDecodes(t testing.TB, resp *PlanResponse) {
	t.Helper()
	grouped, err := resp.AppendJSON(nil)
	if err != nil {
		return
	}
	perTask, err := json.Marshal(legacyPlanResponse{SessionID: resp.SessionID, Iteration: resp.Iteration, Seq: resp.Seq,
		Decision: resp.Decision, Degraded: resp.Degraded, Predictions: expandPredictions(resp.Predictions)})
	if err != nil {
		t.Fatal(err)
	}
	var fromGrouped, fromPerTask PlanResponse
	if err := fromGrouped.UnmarshalJSON(grouped); err != nil {
		t.Fatalf("grouped body does not decode: %v: %s", err, grouped)
	}
	if err := fromPerTask.UnmarshalJSON(perTask); err != nil {
		t.Fatalf("per-task body does not decode: %v: %s", err, perTask)
	}
	if got, want := expandPredictions(fromPerTask.Predictions), expandPredictions(fromGrouped.Predictions); !samePredictions(got, want) {
		t.Fatalf("the per-task body decodes to a different wavefront than the grouped one\nper-task: %+v\ngrouped:  %+v", got, want)
	}
	if fromPerTask.Seq != fromGrouped.Seq || fromPerTask.Degraded != fromGrouped.Degraded || !sameDecision(fromPerTask.Decision, fromGrouped.Decision) {
		t.Fatalf("the per-task body decodes to a different envelope than the grouped one")
	}
}

// nanController is a controller whose wavefront carries a NaN, the one thing
// a PlanResponse cannot encode.
type nanController struct{}

func (nanController) Name() string                        { return "nan" }
func (nanController) Plan(*monitor.Snapshot) sim.Decision { return sim.Decision{Launch: 1} }
func (nanController) Wavefront() []core.Prediction {
	return []core.Prediction{{Task: 0, EstimatedExec: math.NaN(), Policy: predict.PolicyOGD}}
}

// TestPlanUnencodableResponse pins what a response that cannot be encoded
// does now that it is encoded before the journal write: the client gets the
// same 500 encode_failed, encode_errors_total counts it, and the WAL gets
// nothing — not a partial record, not a record without its response.
func TestPlanUnencodableResponse(t *testing.T) {
	dir := t.TempDir()
	srv, client := newTestServer(t, Config{JournalDir: dir})
	wf := smallWorkflow(3)
	sess, err := srv.Store().Create("wire", wf, nanController{})
	if err != nil {
		t.Fatal(err)
	}
	srv.openSessionJournal(sess, &CreateSessionRequest{Workflow: dagio.Encode(wf)}, 0)
	walPath := filepath.Join(dir, sess.ID+".wal")
	before, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}

	_, err = client.Plan(context.Background(), sess.ID, 1, readySnapshot(wf))
	var apiErr *APIError
	if err == nil || !asAPIError(err, &apiErr) || apiErr.StatusCode != http.StatusInternalServerError || apiErr.Code != "encode_failed" {
		t.Fatalf("plan with a NaN prediction: err = %v, want 500/encode_failed", err)
	}
	if md := srv.Metrics().Dump(srv.now(), 1); md.EncodeErrorsTotal != 1 {
		t.Errorf("encode_errors_total = %d, want 1", md.EncodeErrorsTotal)
	}
	after, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(after, before) {
		t.Errorf("unencodable plan wrote %d byte(s) to the WAL: %q", len(after)-len(before), strings.TrimPrefix(string(after), string(before)))
	}
}
