package lookahead

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/cloud"
	"repro/internal/dag"
	"repro/internal/monitor"
	"repro/internal/predict"
	"repro/internal/simtime"
)

// epochEst is a deterministic EpochEstimator whose per-task answers depend
// on the stage's epochs, so a stale memoized estimate (missed invalidation)
// shows up as a projection mismatch rather than staying silently identical.
type epochEst struct {
	agg   []uint64
	model []uint64
}

func (e *epochEst) EstimateOccupancy(snap *monitor.Snapshot, id dag.TaskID) (float64, predict.Policy) {
	st := snap.Workflow.Tasks[id].Stage
	v := float64(id%7+1) + 0.5*float64(e.agg[st]%5) + 0.25*float64(e.model[st]%3)
	pol := predict.PolicyGroupMedian
	if e.model[st]%2 == 1 {
		pol = predict.PolicyOGD
	}
	return v, pol
}

func (e *epochEst) EstimateEpochs(stage dag.StageID) (uint64, uint64) {
	return e.agg[stage], e.model[stage]
}

// randWorkflow builds a layered random DAG: stages in sequence, each task
// depending on a random subset of the previous stage.
func randWorkflow(rng *rand.Rand) *dag.Workflow {
	b := dag.NewBuilder("prop")
	nStages := rng.Intn(4) + 2
	var prev []dag.TaskID
	for s := 0; s < nStages; s++ {
		st := b.AddStage(fmt.Sprintf("s%d", s))
		n := rng.Intn(6) + 1
		var cur []dag.TaskID
		for i := 0; i < n; i++ {
			var deps []dag.TaskID
			for _, d := range prev {
				if rng.Intn(2) == 0 {
					deps = append(deps, d)
				}
			}
			cur = append(cur, b.AddTask(st, fmt.Sprintf("t%d_%d", s, i),
				float64(rng.Intn(50)+1), float64(rng.Intn(5)), float64(rng.Intn(100)+1), deps...))
		}
		prev = cur
	}
	return b.MustBuild()
}

// trajectory drives a sloppy emulation of a run: tasks flow Blocked → Ready
// → Running → Completed (or Quarantined), instances arrive pending, turn
// active, and retire — sometimes mid-run, writing their running tasks back
// to Ready (a DOA write-off). Occasionally a Completed task is reverted,
// producing a non-monotonic snapshot the incremental projector must survive
// by resetting.
type trajectory struct {
	rng    *rand.Rand
	wf     *dag.Workflow
	s      *monitor.Snapshot
	nextID cloud.InstanceID
}

func newTrajectory(rng *rand.Rand, wf *dag.Workflow) *trajectory {
	tr := &trajectory{rng: rng, wf: wf}
	tr.s = &monitor.Snapshot{
		Interval:         30,
		ChargingUnit:     600,
		LagTime:          30,
		SlotsPerInstance: rng.Intn(3) + 1,
		Workflow:         wf,
		Tasks:            make([]monitor.TaskRecord, wf.NumTasks()),
	}
	for _, t := range wf.Tasks {
		tr.s.Tasks[t.ID] = monitor.TaskRecord{ID: t.ID, Stage: t.Stage, State: monitor.Blocked, InputSize: t.InputSize}
	}
	return tr
}

func (tr *trajectory) freeSlot() (cloud.InstanceID, int, bool) {
	for i := range tr.s.Instances {
		inst := &tr.s.Instances[i]
		if inst.State != cloud.Active || inst.Draining {
			continue
		}
		if len(inst.Running) < inst.Slots {
			return inst.ID, len(inst.Running), true
		}
	}
	return 0, 0, false
}

func (tr *trajectory) instance(id cloud.InstanceID) *monitor.InstanceRecord {
	for i := range tr.s.Instances {
		if tr.s.Instances[i].ID == id {
			return &tr.s.Instances[i]
		}
	}
	return nil
}

func removeRunning(inst *monitor.InstanceRecord, id dag.TaskID) {
	for i, r := range inst.Running {
		if r == id {
			inst.Running = append(inst.Running[:i], inst.Running[i+1:]...)
			return
		}
	}
}

// step advances the emulated run by one interval and returns the snapshot.
func (tr *trajectory) step() *monitor.Snapshot {
	rng, s := tr.rng, tr.s
	s.Now += s.Interval
	s.RecentTransfers = s.RecentTransfers[:0]

	// Instance lifecycle: arrivals, activations, retirements.
	if rng.Intn(3) == 0 {
		tr.nextID++
		s.Instances = append(s.Instances, monitor.InstanceRecord{
			ID: tr.nextID, State: cloud.Pending, Slots: s.SlotsPerInstance,
			RequestedAt: s.Now - simtime.Time(rng.Intn(20)),
		})
	}
	for i := range s.Instances {
		inst := &s.Instances[i]
		if inst.State == cloud.Pending && rng.Intn(2) == 0 {
			inst.State = cloud.Active
			inst.ActiveAt = s.Now
		}
		if inst.State == cloud.Active {
			inst.TimeToNextCharge = simtime.Duration(rng.Intn(600))
			if rng.Intn(10) == 0 {
				inst.Draining = true
			}
		}
	}
	if len(s.Instances) > 0 && rng.Intn(5) == 0 {
		// Retire one instance: running tasks are written back to Ready
		// (their attempt died with the machine).
		i := rng.Intn(len(s.Instances))
		for _, id := range s.Instances[i].Running {
			rec := &s.Tasks[id]
			rec.State = monitor.Ready
			rec.StartedAt, rec.Instance, rec.Slot, rec.Elapsed = 0, 0, 0, 0
			rec.TransferObserved, rec.TransferTime = false, 0
		}
		s.Instances = append(s.Instances[:i], s.Instances[i+1:]...)
	}

	// Task lifecycle.
	for id := range s.Tasks {
		rec := &s.Tasks[id]
		switch rec.State {
		case monitor.Blocked:
			ok := true
			for _, d := range tr.wf.Tasks[id].Deps {
				if s.Tasks[d].State != monitor.Completed {
					ok = false
					break
				}
			}
			if ok {
				rec.State = monitor.Ready
				rec.ReadyAt = s.Now - simtime.Time(rng.Intn(int(s.Interval)))
			}
		case monitor.Ready:
			if inst, slot, free := tr.freeSlot(); free && rng.Intn(2) == 0 {
				rec.State = monitor.Running
				rec.StartedAt = s.Now - simtime.Time(rng.Intn(10))
				rec.Instance, rec.Slot = inst, slot
				tr.instance(inst).Running = append(tr.instance(inst).Running, dag.TaskID(id))
			} else if rng.Intn(20) == 0 {
				rec.State = monitor.Quarantined
			}
		case monitor.Running:
			rec.Elapsed = simtime.Duration(s.Now - rec.StartedAt)
			if !rec.TransferObserved && rng.Intn(2) == 0 {
				rec.TransferObserved = true
				rec.TransferTime = simtime.Duration(rng.Intn(5))
				s.RecentTransfers = append(s.RecentTransfers, rec.TransferTime)
			}
			switch rng.Intn(4) {
			case 0:
				rec.State = monitor.Completed
				rec.CompletedAt = s.Now
				rec.ExecTime = rec.Elapsed - rec.TransferTime
				removeRunning(tr.instance(rec.Instance), dag.TaskID(id))
			case 1:
				if rng.Intn(5) == 0 { // quarantined mid-flight (poison task)
					rec.State = monitor.Quarantined
					removeRunning(tr.instance(rec.Instance), dag.TaskID(id))
				}
			}
		case monitor.Completed:
			if rng.Intn(40) == 0 {
				// Non-monotonic revert: the projector must reset, not
				// carry a stale waiting count.
				rec.State = monitor.Ready
				rec.CompletedAt, rec.ExecTime = 0, 0
			}
		}
	}
	return s
}

// TestProjectorMatchesFromScratch is the incremental-projection property
// test: across random workflows and random snapshot trajectories — instance
// retirement, DOA write-offs, quarantined-task removal, epoch bumps,
// non-monotonic reverts — the session-pinned Projector must produce a Load
// byte-identical (JSON) to the from-scratch package-level Project.
func TestProjectorMatchesFromScratch(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		wf := randWorkflow(rng)
		est := &epochEst{agg: make([]uint64, wf.NumStages()), model: make([]uint64, wf.NumStages())}
		var proj Projector
		tr := newTrajectory(rng, wf)
		for step := 0; step < 50; step++ {
			if rng.Intn(4) == 0 {
				est.agg[rng.Intn(len(est.agg))]++
			}
			if rng.Intn(4) == 0 {
				est.model[rng.Intn(len(est.model))]++
			}
			s := tr.step()
			inc := proj.Project(s, est)
			ref := Project(s, est)
			ji, err := json.Marshal(inc)
			if err != nil {
				t.Fatalf("seed %d step %d: marshal incremental: %v", seed, step, err)
			}
			jr, err := json.Marshal(ref)
			if err != nil {
				t.Fatalf("seed %d step %d: marshal reference: %v", seed, step, err)
			}
			if !bytes.Equal(ji, jr) {
				t.Fatalf("seed %d step %d: projection diverged\nincremental: %s\nfrom-scratch: %s", seed, step, ji, jr)
			}
		}
	}
}

// TestProjectorDoubleBufferContract pins the Load lifetime rule: the
// returned Load stays intact across the NEXT Project call (double buffer)
// and the two live buffers never alias. Run under -race, concurrent
// projectors on separate sessions also prove the buffers are per-Projector,
// not shared through a pool.
func TestProjectorDoubleBufferContract(t *testing.T) {
	done := make(chan error, 4)
	for g := 0; g < 4; g++ {
		go func(g int) {
			rng := rand.New(rand.NewSource(int64(g)))
			wf := randWorkflow(rng)
			est := &epochEst{agg: make([]uint64, wf.NumStages()), model: make([]uint64, wf.NumStages())}
			var proj Projector
			tr := newTrajectory(rng, wf)

			prev := proj.Project(tr.step(), est)
			prevJSON, _ := json.Marshal(prev)
			for step := 0; step < 30; step++ {
				cur := proj.Project(tr.step(), est)
				if cur == prev {
					done <- fmt.Errorf("goroutine %d step %d: consecutive Projects returned the same buffer", g, step)
					return
				}
				if len(cur.Tasks) > 0 && len(prev.Tasks) > 0 && &cur.Tasks[0] == &prev.Tasks[0] {
					done <- fmt.Errorf("goroutine %d step %d: consecutive Loads share a Tasks backing array", g, step)
					return
				}
				if again, _ := json.Marshal(prev); !bytes.Equal(again, prevJSON) {
					done <- fmt.Errorf("goroutine %d step %d: previous Load mutated by the next Project call", g, step)
					return
				}
				prev = cur
				prevJSON, _ = json.Marshal(prev)
			}
			done <- nil
		}(g)
	}
	for g := 0; g < 4; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

// TestProjectorBacklogEdges drives trajectories through the three moves the
// carried Ready backlog has to get right, each step checked byte for byte
// against a from-scratch Project:
//   - requeue: a Ready task goes Running and back to Ready within one
//     interval, so it is Ready in consecutive snapshots under a new ReadyAt
//     and must leave its old place in the backlog;
//   - tie: tasks turn Ready with ReadyAt == Now, tying with the successors
//     the projection readies at Now when an overdue running task completes;
//   - merge: tasks turn Ready under a ReadyAt older than backlog members,
//     so the arrivals interleave with the backlog instead of following it;
//   - reset: a Completed task is reverted while the backlog is non-empty, so
//     the projector resets with members filed.
//
// Each case counts the steps that really produced its move.
func TestProjectorBacklogEdges(t *testing.T) {
	type prior struct {
		state   monitor.TaskState
		readyAt simtime.Time
	}
	cases := []struct {
		name string
		// tweak edits the fresh snapshot given the previous one's records
		// and reports whether the step produced the case's move.
		tweak func(rng *rand.Rand, s *monitor.Snapshot, prev []prior) bool
	}{
		{"requeue", func(rng *rand.Rand, s *monitor.Snapshot, prev []prior) bool {
			hit := false
			for i := range s.Tasks {
				rec := &s.Tasks[i]
				if rec.State == monitor.Ready && prev[i].state == monitor.Ready && rng.Intn(3) == 0 {
					rec.ReadyAt = s.Now - simtime.Time(rng.Intn(int(s.Interval)))
					hit = hit || rec.ReadyAt != prev[i].readyAt
				}
			}
			return hit
		}},
		{"tie", func(rng *rand.Rand, s *monitor.Snapshot, prev []prior) bool {
			fresh, overdue := false, false
			for i := range s.Tasks {
				rec := &s.Tasks[i]
				if rec.State == monitor.Ready && prev[i].state != monitor.Ready {
					rec.ReadyAt = s.Now
					fresh = true
				}
				// The estimator never answers above 9.5 s: a task running
				// that long completes at Now in the projection.
				overdue = overdue || (rec.State == monitor.Running && rec.Elapsed >= 10)
			}
			return fresh && overdue
		}},
		{"merge", func(rng *rand.Rand, s *monitor.Snapshot, prev []prior) bool {
			// Arrivals filed under a ReadyAt older than backlog members
			// (a client's snapshot may say anything) must be merged in,
			// not appended.
			latest, hit := simtime.Time(-1), false
			for i := range s.Tasks {
				if prev[i].state == monitor.Ready && s.Tasks[i].State == monitor.Ready && s.Tasks[i].ReadyAt > latest {
					latest = s.Tasks[i].ReadyAt
				}
			}
			for i := range s.Tasks {
				rec := &s.Tasks[i]
				if rec.State == monitor.Ready && prev[i].state != monitor.Ready && rng.Intn(2) == 0 {
					rec.ReadyAt = s.Now - simtime.Time(rng.Intn(4*int(s.Interval)))
					hit = hit || rec.ReadyAt < latest
				}
			}
			return hit
		}},
		{"reset", func(rng *rand.Rand, s *monitor.Snapshot, prev []prior) bool {
			backlog := false
			for i := range prev {
				backlog = backlog || (prev[i].state == monitor.Ready && s.Tasks[i].State == monitor.Ready)
			}
			if !backlog || rng.Intn(3) != 0 {
				return false
			}
			for i := range s.Tasks {
				if rec := &s.Tasks[i]; rec.State == monitor.Completed {
					rec.State = monitor.Ready
					rec.ReadyAt = s.Now
					rec.CompletedAt, rec.ExecTime = 0, 0
					return true
				}
			}
			return false
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			hits := 0
			for seed := int64(0); seed < 30; seed++ {
				rng := rand.New(rand.NewSource(seed))
				wf := randWorkflow(rng)
				est := &epochEst{agg: make([]uint64, wf.NumStages()), model: make([]uint64, wf.NumStages())}
				var proj Projector
				tr := newTrajectory(rng, wf)
				prev := make([]prior, wf.NumTasks())
				for i := range prev {
					prev[i].state = monitor.Blocked
				}
				for step := 0; step < 50; step++ {
					s := tr.step()
					if tc.tweak(rng, s, prev) {
						hits++
					}
					for i := range s.Tasks {
						prev[i] = prior{s.Tasks[i].State, s.Tasks[i].ReadyAt}
					}
					ji, _ := json.Marshal(proj.Project(s, est))
					jr, _ := json.Marshal(Project(s, est))
					if !bytes.Equal(ji, jr) {
						t.Fatalf("seed %d step %d: projection diverged\nincremental: %s\nfrom-scratch: %s", seed, step, ji, jr)
					}
				}
			}
			if hits == 0 {
				t.Fatal("no step produced the move under test")
			}
		})
	}
}

// TestProjectReadyTieBreaksByID pins the tie between a snapshot-Ready task
// with ReadyAt == Now and a successor the projection readies at Now: the
// lower task ID dispatches first, whichever queue it sits in, and a carried
// backlog answers as a fresh projection does.
func TestProjectReadyTieBreaksByID(t *testing.T) {
	// Task 0 runs overdue on the only slot and completes at Now; its
	// successor and a root that turned Ready at Now then compete for the
	// slot.
	build := func(successorFirst bool) (*dag.Workflow, dag.TaskID, dag.TaskID) {
		b := dag.NewBuilder("tie")
		st := b.AddStage("s")
		a := b.AddTask(st, "a", 10, 0, 1)
		if successorFirst {
			succ := b.AddTask(st, "succ", 10, 0, 1, a)
			root := b.AddTask(st, "root", 10, 0, 1)
			return b.MustBuild(), succ, root
		}
		root := b.AddTask(st, "root", 10, 0, 1)
		succ := b.AddTask(st, "succ", 10, 0, 1, a)
		return b.MustBuild(), succ, root
	}
	for _, successorFirst := range []bool{true, false} {
		wf, succ, root := build(successorFirst)
		s := snap(wf, 100, 10)
		s.Tasks[0].State = monitor.Running
		s.Tasks[0].StartedAt, s.Tasks[0].Elapsed = 0, 100
		s.Tasks[root].State, s.Tasks[root].ReadyAt = monitor.Ready, 100
		addInstance(s, 0, 1, 0, 0)
		est := &fixedEst{def: 1000, per: map[dag.TaskID]float64{0: 50}}

		first, second := root, succ
		if successorFirst {
			first, second = succ, root
		}
		want := []TaskLoad{{Task: first, Remaining: 990, Running: true}, {Task: second, Remaining: 1000}}
		var proj Projector
		// The first call files the root in the backlog; the second reads
		// the carried backlog.
		for call := 0; call < 2; call++ {
			load := proj.Project(s, est)
			if len(load.Tasks) != 2 || load.Tasks[0] != want[0] || load.Tasks[1] != want[1] {
				t.Fatalf("successorFirst=%v call %d: Q_task = %+v, want %+v", successorFirst, call, load.Tasks, want)
			}
		}
	}
}
