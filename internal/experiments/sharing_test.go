package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/dagio"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// workflowDigest hashes everything a run can read of a workflow: its dagio
// document, plus the Succs and stage task lists that the document derives
// rather than stores.
func workflowDigest(t *testing.T, wf *dag.Workflow) string {
	t.Helper()
	h := sha256.New()
	if err := json.NewEncoder(h).Encode(dagio.Encode(wf)); err != nil {
		t.Fatal(err)
	}
	for _, task := range wf.Tasks {
		fmt.Fprintln(h, task.Succs)
	}
	for _, st := range wf.Stages {
		fmt.Fprintln(h, st.Tasks)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestSimRunNeverWritesWorkflow is the certificate behind CostExperiment's
// shared dataset instances: no simulator or controller may write the
// workflow it runs. The race detector sees such a write only when two
// workers share an instance at the same moment; this sees it at any worker
// count. Every catalogue run goes through each grid policy at every
// charging unit, plus a deadline controller, on one instance whose digest
// must never change.
func TestSimRunNeverWritesWorkflow(t *testing.T) {
	cfg := Defaults()
	for _, run := range workloads.Catalog() {
		wf := run.Generate(workloadSeed(cfg.Seed, run.Key, 0))
		want := workflowDigest(t, wf)
		check := func(what string) {
			if got := workflowDigest(t, wf); got != want {
				t.Fatalf("%s: %s wrote the shared workflow (digest %.12s, was %.12s)", run.Key, what, got, want)
			}
		}
		for _, unit := range cfg.Units {
			var wire *sim.Result
			for _, policy := range PolicyNames {
				res, err := runOnce(cfg, wf, run.Key, policy, unit, 0)
				if err != nil {
					t.Fatalf("%s/%s/u=%v: %v", run.Key, policy, unit, err)
				}
				check(fmt.Sprintf("%s at u=%v", policy, unit))
				if policy == "wire" {
					wire = res
				}
			}
			// Four fifths of wire's makespan makes the deadline controller
			// scale (the decision oracle uses the same target).
			ctrl := core.NewDeadline(core.DeadlineConfig{Deadline: 0.8 * wire.Makespan})
			if _, err := sim.Run(wf, ctrl, cfg.simConfig(unit, simSeed(cfg.Seed, run.Key, "deadline", unit, 0))); err != nil {
				t.Fatalf("%s/deadline/u=%v: %v", run.Key, unit, err)
			}
			check(fmt.Sprintf("deadline at u=%v", unit))
		}
	}
}
