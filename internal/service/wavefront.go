package service

import (
	"math"

	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/predict"
	"repro/internal/simtime"
)

// PredictionGroup is the plan response's unit of the prediction wavefront.
// WIRE predicts per stage (and, for a ready task, per input-size group), so
// the pending tasks of one interval share a handful of distinct estimates:
// the response carries each estimate once with the ids of the tasks it covers
// instead of repeating it per task.
type PredictionGroup struct {
	Stage     dag.StageID      `json:"stage"`
	Estimated simtime.Duration `json:"estimated_exec_s"`
	Policy    string           `json:"policy"`
	At        simtime.Time     `json:"at_s"`
	// Tasks are the ids of the group's tasks, ascending.
	Tasks []dag.TaskID `json:"tasks"`
}

// groupKey identifies a group: estimates are compared by their bits, so
// values one ulp apart, or 0 and -0, stay apart and expansion is exact.
type groupKey struct {
	stage  dag.StageID
	policy predict.Policy
	est    uint64
	at     uint64
}

// wavefrontGrouper folds a controller's wavefront into groups, reusing its
// groups and their id slices from one plan to the next. What it returns is
// only valid until the next fold: the session encodes it under its mutex and
// keeps nothing but the bytes.
type wavefrontGrouper struct {
	groups []PredictionGroup
	index  map[groupKey]int
}

// fold groups a wavefront given in task-id order: one group per distinct
// (stage, policy, estimate, instant), ordered by first task id, ids ascending
// within each. A controller stamps one Plan's predictions with one instant,
// so within a response that is one group per (stage, policy, estimate).
func (w *wavefrontGrouper) fold(wave []core.Prediction) []PredictionGroup {
	if len(wave) == 0 {
		return nil
	}
	if w.index == nil {
		w.index = make(map[groupKey]int)
	}
	clear(w.index)
	groups := w.groups[:0]
	var lastKey groupKey
	last := -1
	for i := range wave {
		pr := &wave[i]
		key := groupKey{pr.Stage, pr.Policy, math.Float64bits(pr.EstimatedExec), math.Float64bits(pr.Time)}
		// Neighbouring tasks mostly belong to one stage: try the previous
		// task's group before the map.
		if last < 0 || key != lastKey {
			g, ok := w.index[key]
			if !ok {
				g = len(groups)
				w.index[key] = g
				if g < cap(groups) {
					groups = groups[:g+1]
				} else {
					groups = append(groups, PredictionGroup{})
				}
				groups[g] = PredictionGroup{
					Stage:     pr.Stage,
					Estimated: pr.EstimatedExec,
					Policy:    pr.Policy.String(),
					At:        pr.Time,
					Tasks:     groups[g].Tasks[:0],
				}
			}
			last, lastKey = g, key
		}
		groups[last].Tasks = append(groups[last].Tasks, pr.Task)
	}
	w.groups = groups
	return groups
}
