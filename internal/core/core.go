// Package core assembles WIRE's MAPE loop (§III): the Controller consumes
// one monitoring snapshot per iteration (Monitor), updates the per-stage
// online predictors (Analyze), projects the upcoming load with the online
// workflow simulator and sizes the pool with the resource-steering policy
// (Plan), and returns launch/release orders for the simulator to apply with
// cloud lag semantics (Execute).
//
// The controller also maintains the run state of Figure 1: the latest
// prediction for every task (a wavefront of annotations ahead of the
// execution), which the Figure 4 experiments read back as the prediction
// log.
package core

import (
	"unsafe"

	"repro/internal/dag"
	"repro/internal/lookahead"
	"repro/internal/monitor"
	"repro/internal/predict"
	"repro/internal/sim"
	"repro/internal/simtime"
	"repro/internal/steer"
)

// Config tunes the WIRE controller. The zero value reproduces the paper's
// settings (learning rate 0.1, one OGD pass per interval, restart threshold
// 0.2u, minimal pool of one instance).
type Config struct {
	// Predictor configures the online prediction policies (§III-C).
	Predictor predict.Config
	// RestartFrac overrides the release threshold fraction (default 0.2).
	RestartFrac float64
	// MinPool overrides the minimal pool retained while the workflow is
	// incomplete (default 1).
	MinPool int
	// UtilizationTarget modulates the steering aggressiveness (§IV-A):
	// instances are added once they are predicted busy for at least
	// UtilizationTarget·u instead of a full charging unit. Zero keeps
	// the paper's 1.0.
	UtilizationTarget float64
}

// Prediction is the controller's latest estimate for one task, frozen at
// the last iteration before the task started (the prediction that actually
// steered resources for it).
type Prediction struct {
	Time          simtime.Time
	Task          dag.TaskID
	Stage         dag.StageID
	EstimatedExec simtime.Duration
	Policy        predict.Policy
}

// Controller implements sim.Controller with the WIRE policy.
type Controller struct {
	cfg  Config
	pred *predict.Predictor

	// proj carries the lookahead projection state across the session's MAPE
	// intervals (incremental wait-counts, memoized estimates, simulation
	// buffers); see lookahead.Projector for the invalidation rules.
	proj lookahead.Projector
	// preStart is the prediction log, indexed by task id: each task's last
	// estimate from before it started. Policy == predict.PolicyNone marks a
	// task never annotated (EstimateExec answers a pending task with one of
	// the real policies).
	preStart []Prediction
	// wavefront is the part of the log the last Plan wrote: one entry per
	// task pending in that snapshot, in task-id order.
	wavefront []Prediction
	lastLoad  *lookahead.Load
	iters     int
}

var _ sim.Controller = (*Controller)(nil)

// New returns a WIRE controller.
func New(cfg Config) *Controller {
	return &Controller{cfg: cfg, pred: predict.New(cfg.Predictor)}
}

// Name implements sim.Controller.
func (c *Controller) Name() string { return "wire" }

// Iterations returns the number of MAPE iterations executed.
func (c *Controller) Iterations() int { return c.iters }

// PreStartPredictions returns the prediction log, indexed by task id: each
// task's last execution-time prediction made before it started — the inputs
// to the Figure 4 accuracy study. Policy predict.PolicyNone marks a task never
// annotated, and the log is empty before the first Plan. The slice is the
// controller's own, valid until the next Plan.
func (c *Controller) PreStartPredictions() []Prediction { return c.preStart }

// StateBytes approximates the run state the controller retains between
// iterations: the prediction log, the last wavefront and the predictor's
// aggregates and per-task bookkeeping. The lookahead's projection buffers are
// not counted.
func (c *Controller) StateBytes() int {
	return (cap(c.preStart)+cap(c.wavefront))*int(unsafe.Sizeof(Prediction{})) + c.pred.StateBytes()
}

// Wavefront returns the predictions the last Plan made: one per task that had
// not started in its snapshot, in task-id order. The slice is the
// controller's own buffer, valid until the next Plan.
func (c *Controller) Wavefront() []Prediction { return c.wavefront }

// Plan implements sim.Controller: one MAPE iteration.
func (c *Controller) Plan(snap *monitor.Snapshot) sim.Decision {
	c.iters++

	// Analyze: refresh the per-stage models with the last interval's
	// observations.
	c.pred.Update(snap)

	// Annotate the run state: record the current estimate for every task
	// that has not started yet, so each task keeps the last prediction
	// that preceded its dispatch.
	if n := len(snap.Tasks); len(c.preStart) < n {
		c.preStart = append(c.preStart, make([]Prediction, n-len(c.preStart))...)
	}
	c.wavefront = c.wavefront[:0]
	for i := range snap.Tasks {
		rec := &snap.Tasks[i]
		if rec.State != monitor.Blocked && rec.State != monitor.Ready {
			continue
		}
		exec, pol := c.pred.EstimateExec(snap, rec.ID)
		pr := Prediction{
			Time:          snap.Now,
			Task:          rec.ID,
			Stage:         rec.Stage,
			EstimatedExec: exec,
			Policy:        pol,
		}
		c.preStart[rec.ID] = pr
		c.wavefront = append(c.wavefront, pr)
	}

	// Plan: project the upcoming load one interval ahead and size the
	// pool for it. The projector double-buffers its output, so the Load
	// stored here stays valid until the next-but-one iteration — long
	// enough for LastLoad diagnostics, which always read the newest one.
	load := c.proj.Project(snap, c.pred)
	c.lastLoad = load

	cands := make([]steer.Candidate, 0, len(snap.Instances))
	for _, in := range snap.NonDrainingInstances() {
		cands = append(cands, steer.Candidate{
			ID:               in.ID,
			TimeToNextCharge: in.TimeToNextCharge,
			RestartCost:      load.RestartCost[in.ID],
		})
	}

	scfg := steer.FromSnapshot(snap)
	if c.cfg.RestartFrac > 0 {
		scfg.RestartFrac = c.cfg.RestartFrac
	}
	if c.cfg.MinPool > 0 {
		scfg.MinPool = c.cfg.MinPool
	}
	if c.cfg.UtilizationTarget > 0 {
		scfg.UtilizationTarget = c.cfg.UtilizationTarget
	}

	emptyLoad := len(load.Tasks) == 0 && !snap.Done()
	return steer.Plan(load.Remainings(), emptyLoad, cands, scfg)
}
