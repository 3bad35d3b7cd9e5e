package integration

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/baseline"
	"repro/internal/cloud"
	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/dagio"
	"repro/internal/dist"
	"repro/internal/lookahead"
	"repro/internal/monitor"
	"repro/internal/predict"
	"repro/internal/sim"
	"repro/internal/simtime"
)

// randomWorkflow builds a random layered DAG with skewed task times and
// grouped input sizes — the adversarial input for whole-stack properties.
func randomWorkflow(seed int64) *dag.Workflow {
	rng := rand.New(rand.NewSource(seed))
	b := dag.NewBuilder("prop")
	layers := rng.Intn(4) + 1
	var prev []dag.TaskID
	for l := 0; l < layers; l++ {
		st := b.AddStage("layer")
		width := rng.Intn(8) + 1
		var cur []dag.TaskID
		for i := 0; i < width; i++ {
			var deps []dag.TaskID
			for _, p := range prev {
				if rng.Float64() < 0.4 {
					deps = append(deps, p)
				}
			}
			if l > 0 && len(deps) == 0 {
				deps = append(deps, prev[rng.Intn(len(prev))])
			}
			exec := 1 + rng.Float64()*120
			transfer := rng.Float64() * 5
			size := float64(10 * (1 + rng.Intn(4)))
			cur = append(cur, b.AddTask(st, "t", exec, transfer, size, deps...))
		}
		prev = cur
	}
	return b.MustBuild()
}

// runRandom executes a random workflow under a seed-chosen policy and
// cloud shape.
func runRandom(seed int64) (*dag.Workflow, *sim.Result, error) {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	wf := randomWorkflow(seed)
	var ctrl sim.Controller
	switch rng.Intn(4) {
	case 0:
		ctrl = core.New(core.Config{})
	case 1:
		ctrl = baseline.PureReactive{}
	case 2:
		ctrl = &baseline.ReactiveConserving{}
	default:
		ctrl = core.NewDeadline(core.DeadlineConfig{Deadline: 600 + rng.Float64()*3000})
	}
	cfg := sim.Config{
		Cloud: cloud.Config{
			SlotsPerInstance: 1 + rng.Intn(4),
			LagTime:          float64(rng.Intn(120)),
			ChargingUnit:     float64(30 + rng.Intn(600)),
			MaxInstances:     1 + rng.Intn(12),
		},
		Seed:         seed,
		Interference: dist.NewLognormalFromMean(1, 0.1),
		MaxSimTime:   5e6,
	}
	if rng.Intn(3) == 0 {
		cfg.MTBF = 600 + rng.Float64()*3000
	}
	res, err := sim.Run(wf, ctrl, cfg)
	return wf, res, err
}

// Property: any random workflow under any bundled policy completes with the
// cross-module invariants intact.
func TestRandomWorkflowsAllPoliciesProperty(t *testing.T) {
	f := func(seedRaw int16) bool {
		seed := int64(seedRaw)
		wf, res, err := runRandom(seed)
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		if len(res.TaskRuns) != wf.NumTasks() {
			t.Logf("seed %d: %d/%d tasks", seed, len(res.TaskRuns), wf.NumTasks())
			return false
		}
		end := make(map[dag.TaskID]simtime.Time)
		for _, tr := range res.TaskRuns {
			end[tr.Task] = tr.End
		}
		for _, tr := range res.TaskRuns {
			for _, d := range wf.Task(tr.Task).Deps {
				if tr.Start < end[d]-simtime.Eps {
					t.Logf("seed %d: dep order violated", seed)
					return false
				}
			}
		}
		if res.Utilization < 0 || res.Utilization > 1+simtime.Eps {
			t.Logf("seed %d: utilization %v", seed, res.Utilization)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: JSON serialization round-trips any random workflow exactly.
func TestRandomWorkflowJSONRoundTripProperty(t *testing.T) {
	f := func(seedRaw int16) bool {
		wf := randomWorkflow(int64(seedRaw))
		doc := dagio.Encode(wf)
		back, err := dagio.Decode(doc)
		if err != nil {
			return false
		}
		if back.NumTasks() != wf.NumTasks() || back.NumStages() != wf.NumStages() {
			return false
		}
		for i := range wf.Tasks {
			a, b := wf.Tasks[i], back.Tasks[i]
			if a.ExecTime != b.ExecTime || a.TransferTime != b.TransferTime ||
				a.InputSize != b.InputSize || len(a.Deps) != len(b.Deps) {
				return false
			}
		}
		return back.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: on any snapshot mid-run, the lookahead's Q_task only contains
// incomplete tasks, with non-negative remaining occupancies, and restart
// costs only for non-draining instances.
func TestLookaheadProperty(t *testing.T) {
	f := func(seedRaw int16, tickRaw uint8) bool {
		seed := int64(seedRaw)
		wf := randomWorkflow(seed)
		grab := &grabber{want: int(tickRaw%8) + 1, inner: core.New(core.Config{})}
		cfg := sim.Config{
			Cloud: cloud.Config{SlotsPerInstance: 2, LagTime: 30, ChargingUnit: 120, MaxInstances: 6},
			Seed:  seed,
		}
		cfg.Interference = dist.NewLognormalFromMean(1, 0.1)
		if _, err := sim.Run(wf, grab, cfg); err != nil {
			return false
		}
		if grab.snap == nil {
			return true // run finished before the requested tick
		}
		snap := grab.snap
		pred := predict.New(predict.Config{})
		pred.Update(snap)
		load := lookahead.Project(snap, pred)
		seen := map[dag.TaskID]bool{}
		for _, tl := range load.Tasks {
			if tl.Remaining < 0 {
				return false
			}
			if snap.Task(tl.Task).State == monitor.Completed {
				return false
			}
			if seen[tl.Task] {
				return false // no duplicates in Q_task
			}
			seen[tl.Task] = true
		}
		for id, c := range load.RestartCost {
			if c < 0 {
				return false
			}
			found := false
			for _, in := range snap.Instances {
				if in.ID == id && !in.Draining {
					found = true
				}
			}
			if !found {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// grabber keeps a copy of the snapshot from the want-th control tick.
type grabber struct {
	inner sim.Controller
	want  int
	n     int
	snap  *monitor.Snapshot
}

func (g *grabber) Name() string { return g.inner.Name() }

func (g *grabber) Plan(s *monitor.Snapshot) sim.Decision {
	g.n++
	if g.n == g.want {
		g.snap = s.Clone()
	}
	return g.inner.Plan(s)
}

// Property: the predictor's estimate for a ready task with completed peers
// is bounded by the observed min/max of its stage (median-based policies
// cannot extrapolate beyond the sample), except for OGD extrapolation on
// unseen sizes.
func TestPredictorBoundedProperty(t *testing.T) {
	f := func(seedRaw int16, nRaw uint8) bool {
		rng := rand.New(rand.NewSource(int64(seedRaw)))
		n := int(nRaw%12) + 2
		b := dag.NewBuilder("bound")
		st := b.AddStage("s")
		for i := 0; i < n; i++ {
			b.AddTask(st, "t", 1, 0, 50) // one shared input size
		}
		wf := b.MustBuild()
		snap := &monitor.Snapshot{Now: 100, Interval: 10, Workflow: wf,
			Tasks: make([]monitor.TaskRecord, n)}
		lo, hi := 1e18, 0.0
		for i := 0; i < n; i++ {
			rec := monitor.TaskRecord{ID: dag.TaskID(i), Stage: 0, State: monitor.Completed,
				InputSize: 50, ExecTime: 1 + rng.Float64()*100}
			if i == n-1 {
				rec = monitor.TaskRecord{ID: dag.TaskID(i), Stage: 0, State: monitor.Ready, InputSize: 50}
			} else {
				if rec.ExecTime < lo {
					lo = rec.ExecTime
				}
				if rec.ExecTime > hi {
					hi = rec.ExecTime
				}
			}
			snap.Tasks[i] = rec
		}
		p := predict.New(predict.Config{})
		p.Update(snap)
		est, pol := p.EstimateExec(snap, dag.TaskID(n-1))
		if pol != predict.PolicyGroupMedian {
			return false
		}
		return est >= lo-simtime.Eps && est <= hi+simtime.Eps
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
