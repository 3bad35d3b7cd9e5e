package baseline

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/cloud"
	"repro/internal/dag"
	"repro/internal/monitor"
	"repro/internal/sim"
	"repro/internal/stats"
)

// sortingConserving is ReactiveConserving as it was before it kept its
// median: every Plan collects every completed occupancy and sorts them.
type sortingConserving struct{ ReactiveConserving }

func (s *sortingConserving) Plan(snap *monitor.Snapshot) sim.Decision {
	var occ []float64
	for i := range snap.Tasks {
		if rec := &snap.Tasks[i]; rec.State == monitor.Completed {
			occ = append(occ, rec.Occupancy())
		}
	}
	est, ok := stats.Median(occ)
	if !ok {
		est = snap.Interval
	}
	return s.planAt(snap, est)
}

// conservingTrajectory emulates the snapshots a reactive controller sees:
// tasks start and complete in random order with often zero or tied
// occupancies; now and then a completion is reverted, a completed task's
// observed times change, or the run switches to one of another size.
type conservingTrajectory struct {
	rng *rand.Rand
	s   *monitor.Snapshot
}

func (tr *conservingTrajectory) restart() {
	n := tr.rng.Intn(30) + 1
	s := &monitor.Snapshot{Interval: 60, ChargingUnit: 600, LagTime: 60, SlotsPerInstance: 2, MaxInstances: 8, Tasks: make([]monitor.TaskRecord, n)}
	if tr.s != nil {
		s.Now = tr.s.Now
	}
	for i := range s.Tasks {
		s.Tasks[i] = monitor.TaskRecord{ID: dag.TaskID(i), State: monitor.Blocked}
	}
	tr.s = s
}

func (tr *conservingTrajectory) times() (exec, transfer float64) {
	if tr.rng.Intn(3) == 0 {
		return 0, 0
	}
	return float64(tr.rng.Intn(5) * 30), float64(tr.rng.Intn(3))
}

func (tr *conservingTrajectory) step() *monitor.Snapshot {
	rng := tr.rng
	if tr.s == nil || rng.Intn(40) == 0 {
		tr.restart()
	}
	s := tr.s
	s.Now += s.Interval
	var running []dag.TaskID
	for i := range s.Tasks {
		rec := &s.Tasks[i]
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
			rec.Elapsed += float64(rng.Intn(90))
			if rng.Intn(3) == 0 {
				rec.State = monitor.Completed
				rec.ExecTime, rec.TransferTime = tr.times()
			}
		case monitor.Completed:
			switch rng.Intn(60) {
			case 0:
				rec.State, rec.ExecTime, rec.TransferTime = monitor.Ready, 0, 0
			case 1:
				rec.ExecTime, rec.TransferTime = tr.times()
			}
		}
		if rec.State == monitor.Running {
			running = append(running, rec.ID)
		}
	}
	s.Instances = s.Instances[:0]
	for k := 0; k < rng.Intn(4)+1; k++ {
		in := monitor.InstanceRecord{
			ID: cloud.InstanceID(k), State: cloud.Active, Slots: s.SlotsPerInstance,
			TimeToNextCharge: float64(rng.Intn(600)), Draining: rng.Intn(8) == 0,
		}
		for j := k; j < len(running); j += 4 {
			in.Running = append(in.Running, running[j])
		}
		s.Instances = append(s.Instances, in)
	}
	return s
}

// TestConservingFoldMatchesSorting holds ReactiveConserving's kept median and
// its decisions to the sort-every-time version's over random trajectories,
// non-monotonic ones included.
func TestConservingFoldMatchesSorting(t *testing.T) {
	resets := 0
	for seed := int64(0); seed < 40; seed++ {
		tr := &conservingTrajectory{rng: rand.New(rand.NewSource(seed))}
		fold, ref := &ReactiveConserving{}, &sortingConserving{}
		for step := 0; step < 80; step++ {
			s := tr.step()
			got, want := fold.Plan(s), ref.Plan(s)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d step %d: decided %+v, the sorting version %+v", seed, step, got, want)
			}
			var occ []float64
			for i := range s.Tasks {
				if s.Tasks[i].State == monitor.Completed {
					occ = append(occ, s.Tasks[i].Occupancy())
				}
			}
			gm, gok := fold.completed.Median()
			wm, wok := stats.Median(occ)
			if gm != wm || gok != wok {
				t.Fatalf("seed %d step %d: kept median %v,%v, sorted %v,%v", seed, step, gm, gok, wm, wok)
			}
		}
		resets += fold.resets
	}
	if resets == 0 {
		t.Fatal("no trajectory made the kept median start again from empty")
	}
}
