package core

import (
	"encoding/json"
	"reflect"
	"testing"

	"repro/internal/baseline"
	"repro/internal/cloud"
	"repro/internal/dag"
	"repro/internal/dist"
	"repro/internal/monitor"
	"repro/internal/predict"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// wideWF builds a split -> wide -> merge workflow: one 20s root, n 100s
// parallel tasks, one 20s sink. All tasks in a stage share an input size so
// Policy 4 dominates once completions exist.
func wideWF(n int) *dag.Workflow {
	b := dag.NewBuilder("wide")
	s0 := b.AddStage("split")
	s1 := b.AddStage("wide")
	s2 := b.AddStage("merge")
	root := b.AddTask(s0, "split", 20, 0, 10)
	var mids []dag.TaskID
	for i := 0; i < n; i++ {
		mids = append(mids, b.AddTask(s1, "work", 100, 0, 50, root))
	}
	b.AddTask(s2, "merge", 20, 0, 10, mids...)
	return b.MustBuild()
}

func wireCfg() sim.Config {
	return sim.Config{
		Cloud: cloud.Config{SlotsPerInstance: 1, LagTime: 10, ChargingUnit: 60, MaxInstances: 12},
	}
}

func TestWireCompletesWorkflow(t *testing.T) {
	wf := wideWF(8)
	res, err := sim.Run(wf, New(Config{}), wireCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.TaskRuns) != wf.NumTasks() {
		t.Fatalf("completed %d of %d tasks", len(res.TaskRuns), wf.NumTasks())
	}
	if res.Policy != "wire" {
		t.Fatalf("policy = %q", res.Policy)
	}
}

func TestWireGrowsForWideStage(t *testing.T) {
	wf := wideWF(8)
	res, err := sim.Run(wf, New(Config{}), wireCfg())
	if err != nil {
		t.Fatal(err)
	}
	if res.PeakPool < 3 {
		t.Fatalf("peak pool = %d; WIRE failed to harvest parallelism", res.PeakPool)
	}
}

func TestWireBeatsFullSiteOnCost(t *testing.T) {
	wf := wideWF(8)
	wres, err := sim.Run(wf, New(Config{}), wireCfg())
	if err != nil {
		t.Fatal(err)
	}
	// Full-site: 12 instances for the whole run.
	fcfg := wireCfg()
	fcfg.InitialInstances = 12
	fres, err := sim.Run(wf, baseline.Static{}, fcfg)
	if err != nil {
		t.Fatal(err)
	}
	if wres.UnitsCharged >= fres.UnitsCharged {
		t.Fatalf("wire cost %d not below full-site cost %d", wres.UnitsCharged, fres.UnitsCharged)
	}
	// And not pathologically slower than the full-site run.
	if wres.Makespan > 6*fres.Makespan {
		t.Fatalf("wire makespan %v vs full-site %v", wres.Makespan, fres.Makespan)
	}
}

func TestWirePredictionLogPopulated(t *testing.T) {
	wf := wideWF(8)
	ctrl := New(Config{})
	res, err := sim.Run(wf, ctrl, wireCfg())
	if err != nil {
		t.Fatal(err)
	}
	preds := ctrl.PreStartPredictions()
	if len(preds) == 0 {
		t.Fatal("no predictions recorded")
	}
	// Wide-stage tasks share an input size; once the first-five complete,
	// later tasks should be predicted with Policy 4 and be accurate.
	accurate := 0
	p4 := 0
	for _, tr := range res.TaskRuns {
		pr := preds[tr.Task]
		if pr.Policy == predict.PolicyNone || wf.Task(tr.Task).Stage != 1 {
			continue
		}
		if pr.Policy == predict.PolicyGroupMedian {
			p4++
			if diff := pr.EstimatedExec - tr.ObservedExec; diff > -5 && diff < 5 {
				accurate++
			}
		}
	}
	if p4 == 0 {
		t.Fatal("Policy 4 never used on the wide stage")
	}
	if accurate < p4/2 {
		t.Fatalf("only %d/%d Policy-4 predictions accurate", accurate, p4)
	}
	if ctrl.Iterations() == 0 || ctrl.lastLoad == nil {
		t.Fatal("controller diagnostics empty")
	}
}

func TestWireDrainsPoolAfterWideStage(t *testing.T) {
	wf := wideWF(10)
	ctrl := New(Config{})
	res, err := sim.Run(wf, ctrl, wireCfg())
	if err != nil {
		t.Fatal(err)
	}
	// After the wide stage the workflow narrows to one merge task; the
	// pool must not stay at peak for the remainder. Check that some
	// instance was released before the end of the run.
	peakHeld, lastHeld := 0, 0
	for _, s := range res.Pool {
		if s.Held > peakHeld {
			peakHeld = s.Held
		}
		lastHeld = s.Held
	}
	if lastHeld != 0 {
		t.Fatalf("pool not drained at completion: %d", lastHeld)
	}
	if res.UnitsCharged >= peakHeld*int(res.Makespan/60+1) {
		t.Fatalf("cost %d suggests the pool never shrank (peak %d, makespan %v)",
			res.UnitsCharged, peakHeld, res.Makespan)
	}
}

func TestWireKeepsMinimalPoolWithNoKnowledge(t *testing.T) {
	// A single long chain gives WIRE nothing to parallelize; the pool
	// must stay at the minimal size throughout.
	b := dag.NewBuilder("chain")
	st := b.AddStage("s")
	prev := b.AddTask(st, "t", 50, 0, 1)
	for i := 0; i < 5; i++ {
		prev = b.AddTask(st, "t", 50, 0, 1, prev)
	}
	wf := b.MustBuild()
	res, err := sim.Run(wf, New(Config{}), wireCfg())
	if err != nil {
		t.Fatal(err)
	}
	if res.PeakPool != 1 {
		t.Fatalf("peak pool = %d for a serial chain, want 1", res.PeakPool)
	}
}

func TestWireRespectsConfigOverrides(t *testing.T) {
	wf := wideWF(4)
	ctrl := New(Config{
		RestartFrac: 0.5,
		MinPool:     2,
		Predictor:   predict.Config{EpochsPerUpdate: 4},
	})
	res, err := sim.Run(wf, ctrl, wireCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.TaskRuns) != wf.NumTasks() {
		t.Fatal("incomplete run with overrides")
	}
}

func TestDeadlineControllerMeetsFeasibleDeadline(t *testing.T) {
	// 16 one-minute tasks, 1-slot instances: one instance needs ~16 min
	// plus lag. A 6-minute deadline forces a wide pool.
	wf := wideWF(16)
	tight := core16DeadlineRun(t, wf, 500)
	if tight.Makespan > 500*1.3 {
		t.Fatalf("missed feasible deadline badly: makespan %v", tight.Makespan)
	}
	// A very loose deadline must be much cheaper than the tight one.
	loose := core16DeadlineRun(t, wf, 4000)
	if loose.UnitsCharged >= tight.UnitsCharged {
		t.Fatalf("loose deadline cost %d >= tight %d", loose.UnitsCharged, tight.UnitsCharged)
	}
	if loose.PeakPool >= tight.PeakPool {
		t.Fatalf("loose peak %d >= tight %d", loose.PeakPool, tight.PeakPool)
	}
}

func core16DeadlineRun(t *testing.T, wf *dag.Workflow, deadline float64) *sim.Result {
	t.Helper()
	ctrl := NewDeadline(DeadlineConfig{Deadline: deadline})
	res, err := sim.Run(wf, ctrl, wireCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.TaskRuns) != wf.NumTasks() {
		t.Fatal("incomplete run")
	}
	return res
}

func TestDeadlineControllerInfeasibleGoesWide(t *testing.T) {
	wf := wideWF(16)
	ctrl := NewDeadline(DeadlineConfig{Deadline: 1}) // hopeless
	res, err := sim.Run(wf, ctrl, wireCfg())
	if err != nil {
		t.Fatal(err)
	}
	if res.PeakPool < 8 {
		t.Fatalf("infeasible deadline should max the pool, peak = %d", res.PeakPool)
	}
	if ctrl.cfg.Deadline != 1 || ctrl.Name() != "deadline" {
		t.Fatal("accessors wrong")
	}
}

func TestDeadlineReleasesAtBoundaries(t *testing.T) {
	// After the wide stage, the deadline controller should shed capacity
	// through the same no-recharge release path as WIRE.
	wf := wideWF(12)
	ctrl := NewDeadline(DeadlineConfig{Deadline: 700})
	res, err := sim.Run(wf, ctrl, wireCfg())
	if err != nil {
		t.Fatal(err)
	}
	last := res.Pool[len(res.Pool)-1]
	if last.Held != 0 {
		t.Fatalf("pool not drained: %+v", last)
	}
}

func TestStateDump(t *testing.T) {
	wf := wideWF(6)
	ctrl := New(Config{})
	if _, err := sim.Run(wf, ctrl, wireCfg()); err != nil {
		t.Fatal(err)
	}
	dump := ctrl.State()
	if dump.Iterations == 0 {
		t.Fatal("no iterations recorded")
	}
	if len(dump.Predictions) == 0 {
		t.Fatal("no predictions in state")
	}
	for i := 1; i < len(dump.Predictions); i++ {
		if dump.Predictions[i].Task <= dump.Predictions[i-1].Task {
			t.Fatal("predictions not sorted")
		}
	}
	if len(dump.Stages) == 0 {
		t.Fatal("no stage models in state")
	}
	b, err := json.Marshal(ctrl.State())
	if err != nil {
		t.Fatal(err)
	}
	var back StateDump
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatalf("dump not valid JSON: %v", err)
	}
	if back.Iterations != dump.Iterations || len(back.Predictions) != len(dump.Predictions) {
		t.Fatal("round trip changed state")
	}
}

// mapLogged wraps a WIRE controller and keeps the prediction log the way the
// controller itself did before the log became a slice: a map written, after
// every Plan, with the predictor's estimate for each pending task. It also
// holds each Plan's Wavefront to the pending part of that map.
type mapLogged struct {
	t *testing.T
	*Controller
	log map[dag.TaskID]Prediction
}

func (m *mapLogged) Plan(snap *monitor.Snapshot) sim.Decision {
	dec := m.Controller.Plan(snap)
	var pending []Prediction
	for i := range snap.Tasks {
		rec := &snap.Tasks[i]
		if rec.State != monitor.Blocked && rec.State != monitor.Ready {
			continue
		}
		exec, pol := m.pred.EstimateExec(snap, rec.ID)
		pr := Prediction{Time: snap.Now, Task: rec.ID, Stage: rec.Stage, EstimatedExec: exec, Policy: pol}
		m.log[rec.ID] = pr
		pending = append(pending, pr)
	}
	if got := m.Wavefront(); !reflect.DeepEqual(append([]Prediction(nil), got...), pending) {
		m.t.Fatalf("at %v: Wavefront has %d prediction(s), the snapshot %d pending task(s), or they differ", snap.Now, len(got), len(pending))
	}
	return dec
}

// TestPredictionLogMatchesMapVersion runs every Table I workflow and holds
// PreStartPredictions, State and Wavefront to a map-kept log: the same
// entries, and State's list ascending by task id with no sort to make it so.
func TestPredictionLogMatchesMapVersion(t *testing.T) {
	for _, key := range workloads.Keys() {
		run, _ := workloads.ByKey(key)
		wf := run.Generate(1)
		m := &mapLogged{t: t, Controller: New(Config{}), log: map[dag.TaskID]Prediction{}}
		cfg := sim.Config{
			Cloud: cloud.Config{SlotsPerInstance: 4, LagTime: 180, ChargingUnit: 900, MaxInstances: 12},
			Seed:  1, Interference: dist.NewLognormalFromMean(1, 0.05),
		}
		if _, err := sim.Run(wf, m, cfg); err != nil {
			t.Fatalf("%s: %v", key, err)
		}
		if len(m.log) == 0 {
			t.Fatalf("%s: nothing was predicted", key)
		}
		got := m.PreStartPredictions()
		if len(got) != wf.NumTasks() {
			t.Fatalf("%s: PreStartPredictions has %d entries for %d tasks", key, len(got), wf.NumTasks())
		}
		for id, pr := range got {
			if want, ok := m.log[dag.TaskID(id)]; pr != want || ok != (pr.Policy != predict.PolicyNone) {
				t.Errorf("%s: PreStartPredictions has task %d as %+v, the map-kept log %+v (kept %v)", key, id, pr, want, ok)
			}
		}
		preds := m.State().Predictions
		if len(preds) != len(m.log) {
			t.Fatalf("%s: State lists %d prediction(s), the map-kept log has %d", key, len(preds), len(m.log))
		}
		for i, p := range preds {
			if i > 0 && p.Task <= preds[i-1].Task {
				t.Fatalf("%s: State().Predictions not ascending at %d", key, i)
			}
			want := m.log[p.Task]
			if (p != PredictionState{Task: want.Task, Stage: want.Stage, Estimated: want.EstimatedExec, Policy: want.Policy.String(), At: want.Time}) {
				t.Fatalf("%s: State lists task %d as %+v, the map-kept log has %+v", key, p.Task, p, want)
			}
		}
	}
}
