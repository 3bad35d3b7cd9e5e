package monitor_test

import (
	"encoding/json"
	"reflect"
	"testing"

	"repro/internal/cloud"
	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/dist"
	"repro/internal/monitor"
	"repro/internal/sim"
)

// capture records a copy of every snapshot a controller receives, so the
// round-trip test exercises the exact structures the simulator publishes.
type capture struct {
	inner sim.Controller
	snaps []*monitor.Snapshot
}

func (c *capture) Name() string { return c.inner.Name() }

func (c *capture) Plan(s *monitor.Snapshot) sim.Decision {
	c.snaps = append(c.snaps, s.Clone())
	return c.inner.Plan(s)
}

func testWorkflow(t *testing.T) *dag.Workflow {
	t.Helper()
	b := dag.NewBuilder("json-roundtrip")
	b.AddStage("prep")
	b.AddStage("fan")
	b.AddStage("merge")
	root := b.AddTask(0, "prep0", 30, 5, 12)
	var fan []dag.TaskID
	for i := 0; i < 8; i++ {
		fan = append(fan, b.AddTask(1, "", 120, 10, 64, root))
	}
	sink := b.AddTask(2, "merge0", 60, 8, 128, fan...)
	b.SetOutputSize(sink, 256)
	wf, err := b.Build()
	if err != nil {
		t.Fatalf("build workflow: %v", err)
	}
	return wf
}

// TestSnapshotJSONRoundTrip marshals every snapshot of a real run and
// requires the decoded structure to be deep-equal: the snapshot is the
// public wire format of wire-serve's plan endpoint, so no field may drop or
// mangle data over JSON.
func TestSnapshotJSONRoundTrip(t *testing.T) {
	wf := testWorkflow(t)
	cap := &capture{inner: core.New(core.Config{})}
	_, err := sim.Run(wf, cap, sim.Config{
		Cloud: cloud.Config{
			SlotsPerInstance: 2,
			LagTime:          60,
			ChargingUnit:     300,
			MaxInstances:     6,
		},
		Seed:         7,
		Interference: dist.NewLognormalFromMean(1, 0.1),
	})
	if err != nil {
		t.Fatalf("sim.Run: %v", err)
	}
	if len(cap.snaps) == 0 {
		t.Fatal("no snapshots captured")
	}
	for i, snap := range cap.snaps {
		b, err := json.Marshal(snap)
		if err != nil {
			t.Fatalf("snapshot %d: marshal: %v", i, err)
		}
		var got monitor.Snapshot
		if err := json.Unmarshal(b, &got); err != nil {
			t.Fatalf("snapshot %d: unmarshal: %v", i, err)
		}
		if !reflect.DeepEqual(&got, snap) {
			t.Fatalf("snapshot %d: round trip mismatch:\n got %+v\nwant %+v", i, &got, snap)
		}
	}
}

// TestSnapshotJSONRoundTripAllFields covers fields a short run may leave at
// their zero value (Slot, Draining, pending instances, recent transfers).
func TestSnapshotJSONRoundTripAllFields(t *testing.T) {
	wf := testWorkflow(t)
	snap := &monitor.Snapshot{
		Now:              420,
		Interval:         60,
		ChargingUnit:     300,
		LagTime:          60,
		SlotsPerInstance: 2,
		MaxInstances:     6,
		Workflow:         wf,
		Tasks: []monitor.TaskRecord{
			{ID: 0, Stage: 0, State: monitor.Completed, InputSize: 12, ReadyAt: 0,
				StartedAt: 60, Instance: 0, Slot: 1, TransferObserved: true,
				TransferTime: 5.25, CompletedAt: 95.5, ExecTime: 30.25},
			{ID: 1, Stage: 1, State: monitor.Running, InputSize: 64, ReadyAt: 95.5,
				StartedAt: 100, Instance: 2, Elapsed: 320, TransferObserved: true,
				TransferTime: 10},
			{ID: 2, Stage: 1, State: monitor.Ready, InputSize: 64, ReadyAt: 95.5},
			{ID: 3, Stage: 2, State: monitor.Blocked, InputSize: 128},
		},
		Instances: []monitor.InstanceRecord{
			{ID: 0, State: cloud.Active, Slots: 2, RequestedAt: 0, ActiveAt: 60,
				TimeToNextCharge: 240, Running: []dag.TaskID{1}, Draining: false},
			{ID: 2, State: cloud.Pending, Slots: 2, RequestedAt: 400, ActiveAt: 460},
			{ID: 1, State: cloud.Active, Slots: 2, RequestedAt: 0, ActiveAt: 60,
				TimeToNextCharge: 240, Draining: true},
		},
		RecentTransfers: []float64{5.25, 10},
	}
	b, err := json.Marshal(snap)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var got monitor.Snapshot
	if err := json.Unmarshal(b, &got); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if !reflect.DeepEqual(&got, snap) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", &got, snap)
	}
}

// TestTaskStateJSONNames pins the on-wire state names and accepts legacy
// integer encodings.
func TestTaskStateJSONNames(t *testing.T) {
	for state, name := range map[monitor.TaskState]string{
		monitor.Blocked:   `"blocked"`,
		monitor.Ready:     `"ready"`,
		monitor.Running:   `"running"`,
		monitor.Completed: `"completed"`,
	} {
		b, err := json.Marshal(state)
		if err != nil {
			t.Fatalf("marshal %v: %v", state, err)
		}
		if string(b) != name {
			t.Errorf("marshal %v = %s, want %s", state, b, name)
		}
		var fromName, fromInt monitor.TaskState
		if err := json.Unmarshal(b, &fromName); err != nil || fromName != state {
			t.Errorf("unmarshal %s = %v, %v; want %v", b, fromName, err, state)
		}
		legacy, _ := json.Marshal(int(state))
		if err := json.Unmarshal(legacy, &fromInt); err != nil || fromInt != state {
			t.Errorf("unmarshal legacy %s = %v, %v; want %v", legacy, fromInt, err, state)
		}
	}
	var s monitor.TaskState
	if err := json.Unmarshal([]byte(`"exploded"`), &s); err == nil {
		t.Error("unknown state name should fail to unmarshal")
	}
}
