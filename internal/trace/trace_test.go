package trace

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/baseline"
	"repro/internal/chaos"
	"repro/internal/cloud"
	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/monitor"
	"repro/internal/sim"
)

func runTraced(t *testing.T, ctrl sim.Controller, init int) (*Recorder, *sim.Result) {
	t.Helper()
	b := dag.NewBuilder("traced")
	s0 := b.AddStage("a")
	s1 := b.AddStage("b")
	r := b.AddTask(s0, "r", 20, 0, 1)
	for i := 0; i < 4; i++ {
		b.AddTask(s1, "w", 60, 0, 1, r)
	}
	wf := b.MustBuild()
	rec := NewRecorder()
	res, err := sim.Run(wf, ctrl, sim.Config{
		Cloud:            cloud.Config{SlotsPerInstance: 2, LagTime: 10, ChargingUnit: 60, MaxInstances: 4},
		InitialInstances: init,
		Observer:         rec.Hook(),
	})
	if err != nil {
		t.Fatal(err)
	}
	return rec, res
}

func TestRecorderCapturesLifecycle(t *testing.T) {
	rec, res := runTraced(t, core.New(core.Config{}), 1)
	counts := rec.CountByKind()
	if counts[sim.EvTaskStart] < 5 || counts[sim.EvTaskComplete] != 5 {
		t.Fatalf("task events = %v", counts)
	}
	if counts[sim.EvInstanceLaunch] != res.Launches {
		t.Fatalf("launches %d != events %d", res.Launches, counts[sim.EvInstanceLaunch])
	}
	if counts[sim.EvInstanceTerminated] != res.Launches {
		t.Fatalf("every launched instance must terminate: %v", counts)
	}
	if counts[sim.EvDecision] != res.Decisions {
		t.Fatalf("decisions %d != events %d", res.Decisions, counts[sim.EvDecision])
	}
	// Events are time-ordered.
	for i := 1; i < len(rec.Events); i++ {
		if rec.Events[i].Time < rec.Events[i-1].Time {
			t.Fatal("events out of order")
		}
	}
}

func TestRecorderCSV(t *testing.T) {
	rec, _ := runTraced(t, baseline.Static{}, 4)
	var buf bytes.Buffer
	if err := rec.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.HasPrefix(out, "time_s,kind,task,instance,launch,released\n") {
		t.Fatalf("csv header wrong: %q", out[:60])
	}
	if !strings.Contains(out, "task-complete") || !strings.Contains(out, "instance-launch") {
		t.Fatal("csv missing event kinds")
	}
	// Decision rows carry a dash for task/instance.
	if !strings.Contains(out, "decision,-,-") {
		t.Fatalf("decision row malformed:\n%s", out)
	}
}

func TestGantt(t *testing.T) {
	_, res := runTraced(t, baseline.Static{}, 4)
	g := Gantt(res, 40)
	if g == "" {
		t.Fatal("empty gantt")
	}
	lines := strings.Split(strings.TrimRight(g, "\n"), "\n")
	// Header plus one row per instance that ran tasks.
	if len(lines) < 2 {
		t.Fatalf("gantt:\n%s", g)
	}
	// Some cell must show occupancy of 2 (two slots busy).
	if !strings.Contains(g, "2") {
		t.Fatalf("no 2-slot occupancy visible:\n%s", g)
	}
	if Gantt(res, 0) != "" {
		t.Fatal("zero width should be empty")
	}
	if Gantt(&sim.Result{}, 10) != "" {
		t.Fatal("empty result should be empty")
	}
}

func TestPoolSparkline(t *testing.T) {
	_, res := runTraced(t, core.New(core.Config{}), 1)
	s := PoolSparkline(res, 30)
	if len([]rune(s)) != 30 {
		t.Fatalf("sparkline width = %d", len([]rune(s)))
	}
	if PoolSparkline(&sim.Result{}, 10) != "" {
		t.Fatal("empty result should be empty")
	}
}

func TestEventKindStrings(t *testing.T) {
	kinds := []sim.EventKind{
		sim.EvTaskStart, sim.EvTaskComplete, sim.EvTaskKilled,
		sim.EvInstanceLaunch, sim.EvInstanceActive, sim.EvInstanceTerminated, sim.EvDecision,
		sim.EvInstanceFailed, sim.EvOrderLost, sim.EvOrderDuplicated, sim.EvInstanceDOA,
	}
	seen := map[string]bool{}
	for _, k := range kinds {
		s := k.String()
		if s == "" || seen[s] {
			t.Fatalf("kind %d string %q", int(k), s)
		}
		seen[s] = true
	}
	if sim.EventKind(99).String() == "" {
		t.Fatal("unknown kind renders empty")
	}
}

func TestKilledTasksAppearInTrace(t *testing.T) {
	// Force a kill: controller releases the only instance mid-task.
	b := dag.NewBuilder("kill")
	st := b.AddStage("s")
	b.AddTask(st, "t", 100, 0, 1)
	wf := b.MustBuild()
	rec := NewRecorder()
	res, err := sim.Run(wf, &killOnce{}, sim.Config{
		Cloud:            cloud.Config{SlotsPerInstance: 1, LagTime: 10, ChargingUnit: 1000, MaxInstances: 4},
		InitialInstances: 1,
		Observer:         rec.Hook(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Restarts != 1 {
		t.Fatalf("restarts = %d", res.Restarts)
	}
	if rec.CountByKind()[sim.EvTaskKilled] != 1 {
		t.Fatalf("kill event missing: %v", rec.CountByKind())
	}
}

type killOnce struct{ done bool }

func (k *killOnce) Name() string { return "kill-once" }

func (k *killOnce) Plan(snap *monitor.Snapshot) sim.Decision {
	if !k.done && len(snap.Instances) > 0 && len(snap.Instances[0].Running) > 0 {
		k.done = true
		return sim.Decision{Launch: 1, Releases: []sim.ReleaseOrder{{Instance: snap.Instances[0].ID}}}
	}
	return sim.Decision{}
}

// grower launches one instance per tick until the site cap.
type grower struct{ cap int }

func (grower) Name() string { return "grower" }

func (g grower) Plan(snap *monitor.Snapshot) sim.Decision {
	if len(snap.Instances) < g.cap {
		return sim.Decision{Launch: 1}
	}
	return sim.Decision{}
}

// TestFaultEventsAppearInTrace runs a fault-injected simulation and requires
// every injected cloud fault to surface in the recorded event stream and its
// CSV dump, each count agreeing with the run result.
func TestFaultEventsAppearInTrace(t *testing.T) {
	b := dag.NewBuilder("faulty")
	st := b.AddStage("s")
	for i := 0; i < 30; i++ {
		b.AddTask(st, "t", 120, 0, 1)
	}
	wf := b.MustBuild()
	plan := chaos.Plan{Seed: 3, LostOrder: 0.25, DuplicateOrder: 0.25, DeadOnArrival: 0.25}
	rec := NewRecorder()
	res, err := sim.Run(wf, grower{cap: 6}, sim.Config{
		Cloud:    cloud.Config{SlotsPerInstance: 2, LagTime: 10, ChargingUnit: 60, MaxInstances: 6},
		Faults:   plan.CloudFaults(1),
		Observer: rec.Hook(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.OrdersLost+res.OrdersDuplicated+res.DeadOnArrival == 0 {
		t.Fatal("no cloud faults injected; the trace has nothing to record")
	}
	counts := rec.CountByKind()
	if counts[sim.EvOrderLost] != res.OrdersLost {
		t.Errorf("order-lost events = %d, result says %d", counts[sim.EvOrderLost], res.OrdersLost)
	}
	if counts[sim.EvOrderDuplicated] != res.OrdersDuplicated {
		t.Errorf("order-duplicated events = %d, result says %d", counts[sim.EvOrderDuplicated], res.OrdersDuplicated)
	}
	if counts[sim.EvInstanceDOA] != res.DeadOnArrival {
		t.Errorf("instance-doa events = %d, result says %d", counts[sim.EvInstanceDOA], res.DeadOnArrival)
	}

	var buf bytes.Buffer
	if err := rec.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for kind, n := range map[string]int{
		"order-lost":       res.OrdersLost,
		"order-duplicated": res.OrdersDuplicated,
		"instance-doa":     res.DeadOnArrival,
	} {
		if n > 0 && !strings.Contains(out, kind) {
			t.Errorf("csv missing %q rows (%d injected)", kind, n)
		}
	}
}
