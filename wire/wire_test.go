package wire_test

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/dag"
	"repro/wire"
)

func smallWorkflow() *wire.Workflow {
	b := wire.NewWorkflowBuilder("facade")
	s0 := b.AddStage("split")
	s1 := b.AddStage("work")
	root := b.AddTask(s0, "split", 10, 1, 100)
	for i := 0; i < 6; i++ {
		b.AddTask(s1, "w", 60, 1, 50, root)
	}
	return b.MustBuild()
}

func cloudCfg() wire.CloudConfig {
	return wire.CloudConfig{SlotsPerInstance: 2, LagTime: 30, ChargingUnit: 120, MaxInstances: 6}
}

func TestRunUnderEveryBundledPolicy(t *testing.T) {
	ctrls := map[string]func() wire.Controller{
		"wire":                func() wire.Controller { return wire.NewController(wire.ControllerConfig{}) },
		"full-site":           func() wire.Controller { return wire.FullSite },
		"pure-reactive":       func() wire.Controller { return wire.PureReactive },
		"reactive-conserving": wire.NewReactiveConserving,
	}
	for name, mk := range ctrls {
		cfg := wire.RunConfig{Cloud: cloudCfg()}
		if name == "full-site" {
			cfg.InitialInstances = cfg.Cloud.MaxInstances
		}
		res, err := wire.Run(smallWorkflow(), mk(), cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(res.TaskRuns) != 7 {
			t.Fatalf("%s: %d task runs", name, len(res.TaskRuns))
		}
	}
}

func TestCatalog(t *testing.T) {
	if _, ok := wire.CatalogByKey("bogus"); ok {
		t.Fatal("unknown key found")
	}
	run, ok := wire.CatalogByKey("pagerank-l")
	if !ok {
		t.Fatal("pagerank-l missing")
	}
	wf := run.Generate(1)
	if wf.NumTasks() != 313 {
		t.Fatalf("tasks = %d", wf.NumTasks())
	}
}

func TestLinearWorkflow(t *testing.T) {
	wf := wire.LinearWorkflow(5, 30)
	if wf.NumTasks() != 5 || wf.NumStages() != 1 {
		t.Fatalf("shape = %d/%d", wf.NumTasks(), wf.NumStages())
	}
}

func TestWorkflowSerialization(t *testing.T) {
	wf := smallWorkflow()
	var buf bytes.Buffer
	if err := wire.WriteWorkflow(&buf, wf); err != nil {
		t.Fatal(err)
	}
	back, err := wire.ReadWorkflow(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumTasks() != wf.NumTasks() {
		t.Fatal("round trip lost tasks")
	}
}

// countingController demonstrates (and pins) the custom-controller surface.
type countingController struct{ ticks int }

func (c *countingController) Name() string { return "counting" }

func (c *countingController) Plan(snap *wire.Snapshot) wire.Decision {
	c.ticks++
	if snap.ActiveLoad() > 0 && len(snap.NonDrainingInstances()) == 0 {
		return wire.Decision{Launch: 1}
	}
	return wire.Decision{}
}

func TestCustomControllerSurface(t *testing.T) {
	ctrl := &countingController{}
	res, err := wire.Run(smallWorkflow(), ctrl, wire.RunConfig{Cloud: cloudCfg()})
	if err != nil {
		t.Fatal(err)
	}
	if ctrl.ticks == 0 || res.Decisions != ctrl.ticks {
		t.Fatalf("ticks=%d decisions=%d", ctrl.ticks, res.Decisions)
	}
}

func ExampleRun() {
	b := wire.NewWorkflowBuilder("example")
	stage := b.AddStage("work")
	for i := 0; i < 4; i++ {
		b.AddTask(stage, "task", 50, 0, 10)
	}
	wf := b.MustBuild()

	res, err := wire.Run(wf, wire.NewController(wire.ControllerConfig{}), wire.RunConfig{
		Cloud: wire.CloudConfig{SlotsPerInstance: 1, LagTime: 10, ChargingUnit: 60, MaxInstances: 4},
	})
	if err != nil {
		panic(err)
	}
	fmt.Println("tasks completed:", len(res.TaskRuns))
	// Output: tasks completed: 4
}

func TestExtensionSurface(t *testing.T) {
	wf := smallWorkflow()

	// Deadline controller through the facade.
	dres, err := wire.Run(wf, wire.NewDeadlineController(wire.DeadlineConfig{Deadline: 2000}),
		wire.RunConfig{Cloud: cloudCfg()})
	if err != nil {
		t.Fatal(err)
	}
	if len(dres.TaskRuns) != 7 {
		t.Fatal("deadline run incomplete")
	}

	// History-based controller from a hand-written stage profile.
	profile := wire.StageProfile{ExecMedian: map[dag.StageID]float64{0: 10, 1: 60}, TransferMedian: 1}
	hres, err := wire.Run(smallWorkflow(), wire.NewHistoryBased(profile),
		wire.RunConfig{Cloud: cloudCfg()})
	if err != nil {
		t.Fatal(err)
	}
	if len(hres.TaskRuns) != 7 {
		t.Fatal("history run incomplete")
	}
}
