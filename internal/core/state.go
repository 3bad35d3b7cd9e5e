package core

import (
	"repro/internal/dag"
	"repro/internal/predict"
	"repro/internal/simtime"
)

// StateDump is the serializable view of the controller's run state
// (Figure 1): the prediction wavefront annotating the DAG ahead of the
// execution, the per-stage learning models, and the last projected load.
type StateDump struct {
	Iterations int `json:"iterations"`

	TransferEstimate simtime.Duration `json:"transfer_estimate_s"`

	// Stages holds the OGD model per stage that has one.
	Stages []StageState `json:"stages"`

	// Predictions is the pre-start wavefront, sorted by task ID.
	Predictions []PredictionState `json:"predictions"`

	// Upcoming summarizes the last projected load.
	Upcoming *UpcomingState `json:"upcoming,omitempty"`
}

// StageState is one stage's learned model.
type StageState struct {
	Stage dag.StageID `json:"stage"`
	A0    float64     `json:"a0"`
	A1    float64     `json:"a1"`
	Scale float64     `json:"scale_mb"`
}

// PredictionState is one task's latest pre-start estimate.
type PredictionState struct {
	Task      dag.TaskID       `json:"task"`
	Stage     dag.StageID      `json:"stage"`
	Estimated simtime.Duration `json:"estimated_exec_s"`
	Policy    string           `json:"policy"`
	At        simtime.Time     `json:"at_s"`
}

// UpcomingState summarizes the last lookahead projection.
type UpcomingState struct {
	At             simtime.Time     `json:"at_s"`
	Tasks          int              `json:"tasks"`
	TotalRemaining simtime.Duration `json:"total_remaining_s"`
	Completions    int              `json:"projected_completions"`
}

// State captures the controller's current run state.
func (c *Controller) State() StateDump {
	dump := StateDump{
		Iterations:       c.iters,
		TransferEstimate: c.pred.EstimateTransfer(),
	}
	for _, sid := range c.pred.ModeledStages() {
		a0, a1, scale, ok := c.pred.Coefficients(sid)
		if !ok {
			continue
		}
		dump.Stages = append(dump.Stages, StageState{Stage: sid, A0: a0, A1: a1, Scale: scale})
	}
	// The log is indexed by task id, so it is already in StateDump's order.
	for i := range c.preStart {
		pr := &c.preStart[i]
		if pr.Policy == predict.PolicyNone {
			continue
		}
		dump.Predictions = append(dump.Predictions, PredictionState{
			Task:      pr.Task,
			Stage:     pr.Stage,
			Estimated: pr.EstimatedExec,
			Policy:    pr.Policy.String(),
			At:        pr.Time,
		})
	}
	if c.lastLoad != nil {
		dump.Upcoming = &UpcomingState{
			At:             c.lastLoad.At,
			Tasks:          len(c.lastLoad.Tasks),
			TotalRemaining: c.lastLoad.TotalRemaining(),
			Completions:    c.lastLoad.ProjectedCompletions,
		}
	}
	return dump
}
