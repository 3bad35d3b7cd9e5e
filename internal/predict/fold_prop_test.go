package predict

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/dag"
	"repro/internal/monitor"
	"repro/internal/stats"
)

// rebuildUpdate is Update as it was before the aggregates were folded: every
// interval it rebuilds each stage's running and completed lists and size
// groups from the whole snapshot and sorts for every median. It writes the
// stageState fields EstimateExec, EstimateEpochs and Coefficients read, so a
// Predictor it drives is the reference a folding one must equal.
func rebuildUpdate(p *Predictor, snap *monitor.Snapshot) {
	p.updates++
	p.updateTransfer(snap)

	for _, st := range snap.Workflow.Stages {
		ss := p.stages[st.ID]
		if ss == nil {
			ss = &stageState{}
			p.stages[st.ID] = ss
		}
		prevHasRunning, prevHasCompleted := ss.hasRunning, ss.hasCompleted
		prevRunMedian, prevCompleteMedian := ss.runMedian, ss.completeMedian
		prevModel := ss.model
		type group struct {
			size  float64
			execs []float64
		}
		var runningElapsed, completedExecs []float64
		var groups []group

		maxSize := ss.model.scale
		for _, tid := range st.Tasks {
			rec := snap.Task(tid)
			switch rec.State {
			case monitor.Running:
				runningElapsed = append(runningElapsed, rec.Elapsed)
			case monitor.Completed:
				completedExecs = append(completedExecs, rec.ExecTime)
				joined := false
				for i := range groups {
					if sizesEquivalent(groups[i].size, rec.InputSize, p.cfg.SizeTolerance) {
						groups[i].execs = append(groups[i].execs, rec.ExecTime)
						joined = true
						break
					}
				}
				if !joined {
					groups = append(groups, group{size: rec.InputSize, execs: []float64{rec.ExecTime}})
				}
			}
			if rec.InputSize > maxSize {
				maxSize = rec.InputSize
			}
		}
		ss.hasRunning = len(runningElapsed) > 0
		ss.hasCompleted = len(completedExecs) > 0
		ss.runMedian, _ = stats.Median(runningElapsed)
		ss.completeMedian, _ = stats.Median(completedExecs)
		ss.groups = ss.groups[:0]
		for _, g := range groups {
			m, _ := stats.Median(g.execs)
			ss.groups = append(ss.groups, sizeGroup{size: g.size, median: m})
		}

		if ss.hasCompleted {
			if maxSize <= 0 {
				maxSize = 1
			}
			ss.model.scale = maxSize
			for e := 0; e < p.cfg.EpochsPerUpdate; e++ {
				ss.model.step(ss.groups, p.cfg.LearningRate)
			}
		}

		aggChanged := ss.hasRunning != prevHasRunning ||
			ss.hasCompleted != prevHasCompleted ||
			ss.runMedian != prevRunMedian ||
			ss.completeMedian != prevCompleteMedian ||
			len(ss.groups) != len(ss.prevGroups)
		if !aggChanged {
			for i := range ss.groups {
				if (groupKey{ss.groups[i].size, ss.groups[i].median}) != ss.prevGroups[i] {
					aggChanged = true
					break
				}
			}
		}
		if aggChanged {
			ss.aggEpoch++
			ss.prevGroups = ss.prevGroups[:0]
			for i := range ss.groups {
				ss.prevGroups = append(ss.prevGroups, groupKey{ss.groups[i].size, ss.groups[i].median})
			}
		}
		if ss.model != prevModel {
			ss.modelEpoch++
		}
	}
}

// sizePalette is where the trajectories draw input sizes from. At the 1%
// default tolerance 100 ~ 100.6 ~ 101.2 but 100 !~ 101.2, so which group a
// completion joins depends on which sizes founded groups first.
var sizePalette = []float64{0, 100, 100.6, 101.2, 150, 200, 400}

const maxPropStages = 3

func randStageWorkflow(rng *rand.Rand) *dag.Workflow {
	b := dag.NewBuilder("fold")
	for s := 0; s < rng.Intn(maxPropStages)+1; s++ {
		st := b.AddStage(fmt.Sprintf("s%d", s))
		for i := 0; i < rng.Intn(12)+1; i++ {
			b.AddTask(st, "t", 1, 0, sizePalette[rng.Intn(len(sizePalette))])
		}
	}
	return b.MustBuild()
}

// foldTrajectory emulates a run's snapshots as the predictor sees them.
// Tasks start and complete in random order, so completions arrive out of
// stage order and sometimes found a size group ahead of an existing one;
// execution times are often zero or tied; now and then a completion is
// reverted, a completed task's input size changes, an unfinished task's size
// changes, or the run switches to a different workflow.
type foldTrajectory struct {
	rng *rand.Rand
	s   *monitor.Snapshot
}

func newFoldTrajectory(rng *rand.Rand) *foldTrajectory {
	tr := &foldTrajectory{rng: rng}
	tr.restart()
	return tr
}

func (tr *foldTrajectory) restart() {
	wf := randStageWorkflow(tr.rng)
	now := 0.0
	if tr.s != nil {
		now = tr.s.Now
	}
	tr.s = &monitor.Snapshot{Now: now, Interval: 10, Workflow: wf, Tasks: make([]monitor.TaskRecord, wf.NumTasks())}
	for _, t := range wf.Tasks {
		tr.s.Tasks[t.ID] = monitor.TaskRecord{ID: t.ID, Stage: t.Stage, State: monitor.Blocked, InputSize: t.InputSize}
	}
}

func (tr *foldTrajectory) size() float64 { return sizePalette[tr.rng.Intn(len(sizePalette))] }

func (tr *foldTrajectory) step() *monitor.Snapshot {
	rng := tr.rng
	if rng.Intn(60) == 0 {
		tr.restart()
	}
	s := tr.s
	s.Now += s.Interval
	s.RecentTransfers = s.RecentTransfers[:0]
	for i := rng.Intn(3); i > 0; i-- {
		s.RecentTransfers = append(s.RecentTransfers, float64(rng.Intn(4)))
	}
	for id := range s.Tasks {
		rec := &s.Tasks[id]
		switch rec.State {
		case monitor.Blocked:
			if rng.Intn(3) == 0 {
				rec.State = monitor.Ready
			}
		case monitor.Ready:
			if rng.Intn(2) == 0 {
				rec.State, rec.Elapsed = monitor.Running, 0
			}
		case monitor.Running:
			rec.Elapsed += float64(rng.Intn(10))
			if rng.Intn(3) == 0 {
				rec.State = monitor.Completed
				switch rng.Intn(3) {
				case 0:
					rec.ExecTime = 0
				case 1:
					rec.ExecTime = float64(rng.Intn(4) * 10)
				default:
					rec.ExecTime = rng.ExpFloat64() * 50
				}
			}
		case monitor.Completed:
			switch rng.Intn(80) {
			case 0:
				rec.State, rec.ExecTime = monitor.Ready, 0
			case 1:
				rec.InputSize = tr.size()
			}
			continue
		}
		if rng.Intn(40) == 0 {
			rec.InputSize = tr.size()
		}
	}
	return s
}

// TestFoldMatchesRebuild drives a folding Predictor and one updated by
// rebuildUpdate through the same trajectories and requires, after every
// step, the same estimate for every task, the same epochs and the same model
// for every stage. Both reset paths must fire along the way.
func TestFoldMatchesRebuild(t *testing.T) {
	stageUpdates := 0
	var resets struct{ order, monotonic int }
	for seed := int64(0); seed < 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		cfg := Config{EpochsPerUpdate: rng.Intn(2) + 1}
		fold, ref := New(cfg), New(cfg)
		tr := newFoldTrajectory(rng)
		for step := 0; step < 120; step++ {
			s := tr.step()
			fold.Update(s)
			rebuildUpdate(ref, s)
			stageUpdates += len(s.Workflow.Stages)
			at := func() string { return fmt.Sprintf("seed %d step %d", seed, step) }

			for id := range s.Tasks {
				ge, gp := fold.EstimateExec(s, dag.TaskID(id))
				we, wp := ref.EstimateExec(s, dag.TaskID(id))
				if math.Float64bits(ge) != math.Float64bits(we) || gp != wp {
					t.Fatalf("%s: task %d estimated %v by %v, the rebuild says %v by %v", at(), id, ge, gp, we, wp)
				}
			}
			for st := dag.StageID(0); st < maxPropStages; st++ {
				ga, gm := fold.EstimateEpochs(st)
				wa, wm := ref.EstimateEpochs(st)
				if ga != wa || gm != wm {
					t.Fatalf("%s: stage %d epochs (%d, %d), the rebuild's (%d, %d)", at(), st, ga, gm, wa, wm)
				}
				g0, g1, gs, gok := fold.Coefficients(st)
				w0, w1, ws, wok := ref.Coefficients(st)
				if g0 != w0 || g1 != w1 || gs != ws || gok != wok {
					t.Fatalf("%s: stage %d model (%v, %v, %v, %v), the rebuild's (%v, %v, %v, %v)", at(), st, g0, g1, gs, gok, w0, w1, ws, wok)
				}
			}
		}
		resets.order += fold.resets.order
		resets.monotonic += fold.resets.monotonic
	}
	t.Logf("%d stage updates: %d founder-order resets, %d non-monotonic resets", stageUpdates, resets.order, resets.monotonic)
	if resets.order == 0 || resets.monotonic == 0 {
		t.Fatalf("a reset path never fired: %d founder-order, %d non-monotonic", resets.order, resets.monotonic)
	}
	if resets.order+resets.monotonic > stageUpdates/4 {
		t.Fatalf("%d of %d stage updates reset: the fold itself is barely exercised", resets.order+resets.monotonic, stageUpdates)
	}
}
