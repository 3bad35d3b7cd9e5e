package service

import (
	"repro/internal/cloud"
	"repro/internal/dag"
	"repro/internal/jsonlite"
	"repro/internal/sim"
	"repro/internal/simtime"
)

// Hand-rolled codec for PlanResponse, the plan endpoint's response body —
// the other half of the per-interval wire round trip (the request half is
// monitor.Snapshot's codec). The same bytes are the HTTP body, the tail of the
// WAL plan record and the session's retry cache, so they are produced once
// per plan and decoded once per plan by every client and by replay; the
// wavefront inside is a handful of stage-shaped groups whose bulk is bare task
// ids. Byte-identical to encoding/json; see internal/jsonlite.

// MarshalJSON implements json.Marshaler, byte-identical to the stock
// encoding of the same struct.
func (r *PlanResponse) MarshalJSON() ([]byte, error) {
	return r.AppendJSON(make([]byte, 0, r.encodedSizeHint()))
}

// encodedSizeHint bounds the encoding from above for catalogue-sized
// responses: a group's fixed fields stay under 128 bytes, a task id and its
// comma under 8.
func (r *PlanResponse) encodedSizeHint() int {
	n := 160
	for i := range r.Predictions {
		n += 128 + 8*len(r.Predictions[i].Tasks)
	}
	return n
}

// AppendJSON appends r encoded as JSON to dst, for callers with a reusable
// buffer (the daemon's pooled response writer).
func (r *PlanResponse) AppendJSON(dst []byte) ([]byte, error) {
	var err error
	dst = append(dst, `{"session_id":`...)
	dst = jsonlite.AppendString(dst, r.SessionID)
	dst = append(dst, `,"iteration":`...)
	dst = jsonlite.AppendInt(dst, r.Iteration)
	dst = append(dst, `,"seq":`...)
	dst = jsonlite.AppendInt(dst, r.Seq)
	dst = append(dst, `,"decision":{"launch":`...)
	dst = jsonlite.AppendInt(dst, int64(r.Decision.Launch))
	if len(r.Decision.Releases) > 0 {
		dst = append(dst, `,"releases":[`...)
		for i, rel := range r.Decision.Releases {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = append(dst, `{"instance":`...)
			dst = jsonlite.AppendInt(dst, int64(rel.Instance))
			if rel.AtBoundary {
				dst = append(dst, `,"at_boundary":true`...)
			}
			dst = append(dst, '}')
		}
		dst = append(dst, ']')
	}
	dst = append(dst, '}')
	if r.Degraded {
		dst = append(dst, `,"degraded":true`...)
	}
	if len(r.Predictions) > 0 {
		dst = append(dst, `,"predictions":[`...)
		for i := range r.Predictions {
			g := &r.Predictions[i]
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = append(dst, `{"stage":`...)
			dst = jsonlite.AppendInt(dst, int64(g.Stage))
			dst = append(dst, `,"estimated_exec_s":`...)
			var ferr error
			dst, ferr = jsonlite.AppendFloat(dst, float64(g.Estimated))
			if err == nil {
				err = ferr
			}
			dst = append(dst, `,"policy":`...)
			dst = jsonlite.AppendString(dst, g.Policy)
			dst = append(dst, `,"at_s":`...)
			dst, ferr = jsonlite.AppendFloat(dst, float64(g.At))
			if err == nil {
				err = ferr
			}
			if g.Tasks == nil {
				dst = append(dst, `,"tasks":null}`...)
				continue
			}
			dst = append(dst, `,"tasks":[`...)
			for j, id := range g.Tasks {
				if j > 0 {
					dst = append(dst, ',')
				}
				dst = jsonlite.AppendInt(dst, int64(id))
			}
			dst = append(dst, ']', '}')
		}
		dst = append(dst, ']')
	}
	return append(dst, '}'), err
}

// UnmarshalJSON implements json.Unmarshaler with the hand-rolled parser.
func (r *PlanResponse) UnmarshalJSON(data []byte) error {
	return unmarshalPlanResponse(data, r)
}

// unmarshalPlanResponse decodes one JSON value into r; same decode semantics
// as encoding/json (see monitor.UnmarshalSnapshot).
func unmarshalPlanResponse(data []byte, r *PlanResponse) error {
	p := jsonlite.Parser{Data: data}
	if err := parsePlanResponse(&p, r); err != nil {
		return err
	}
	if !p.AtEnd() {
		return p.Errorf("unexpected data after top-level value")
	}
	return nil
}

func parsePlanResponse(p *jsonlite.Parser, r *PlanResponse) error {
	return p.Object(func(key []byte) error {
		var err error
		switch string(key) {
		case "session_id":
			r.SessionID, err = p.String()
		case "iteration":
			r.Iteration, err = p.Int()
		case "seq":
			r.Seq, err = p.Int()
		case "decision":
			err = parseDecision(p, &r.Decision)
		case "degraded":
			r.Degraded, err = p.Bool()
		case "predictions":
			r.Predictions, err = parsePredictions(p, r.Predictions)
		default:
			_, err = p.SkipValue()
		}
		return err
	})
}

func parseDecision(p *jsonlite.Parser, d *sim.Decision) error {
	return p.Object(func(key []byte) error {
		var err error
		switch string(key) {
		case "launch":
			var n int64
			n, err = p.Int()
			d.Launch = int(n)
		case "releases":
			out := d.Releases[:0]
			isArray := false
			isArray, err = p.Array(func() error {
				if len(out) < cap(out) {
					out = out[:len(out)+1]
				} else {
					out = append(out, sim.ReleaseOrder{})
				}
				return parseReleaseOrder(p, &out[len(out)-1])
			})
			if !isArray && err == nil {
				d.Releases = nil
				return nil
			}
			if out == nil && isArray {
				out = []sim.ReleaseOrder{}
			}
			d.Releases = out
		default:
			_, err = p.SkipValue()
		}
		return err
	})
}

func parseReleaseOrder(p *jsonlite.Parser, r *sim.ReleaseOrder) error {
	return p.Object(func(key []byte) error {
		var err error
		switch string(key) {
		case "instance":
			var n int64
			n, err = p.Int()
			r.Instance = cloud.InstanceID(n)
		case "at_boundary":
			r.AtBoundary, err = p.Bool()
		default:
			_, err = p.SkipValue()
		}
		return err
	})
}

func parsePredictions(p *jsonlite.Parser, dst []PredictionGroup) ([]PredictionGroup, error) {
	out := dst[:0]
	isArray, err := p.Array(func() error {
		if len(out) < cap(out) {
			out = out[:len(out)+1]
		} else {
			out = append(out, PredictionGroup{})
		}
		return parsePredictionGroup(p, &out[len(out)-1])
	})
	if !isArray && err == nil {
		return nil, nil
	}
	if out == nil && isArray {
		out = []PredictionGroup{}
	}
	return out, err
}

// parsePredictionGroup decodes one group. Journals and daemons from before
// the wavefront was grouped carry one object per task with "task":n where
// this format has "tasks":[…]; such an object reads as a group of that one
// task, so old records replay and old responses decode through this parser
// (forward-only: nothing writes that shape any more).
func parsePredictionGroup(p *jsonlite.Parser, g *PredictionGroup) error {
	*g = PredictionGroup{Tasks: g.Tasks[:0]}
	return p.Object(func(key []byte) error {
		var err error
		switch string(key) {
		case "stage":
			var n int64
			n, err = p.Int()
			g.Stage = dag.StageID(n)
		case "estimated_exec_s":
			var f float64
			f, err = p.Float()
			g.Estimated = simtime.Duration(f)
		case "policy":
			g.Policy, err = p.String()
		case "at_s":
			var f float64
			f, err = p.Float()
			g.At = simtime.Time(f)
		case "tasks":
			ids := g.Tasks[:0]
			isArray := false
			isArray, err = p.Array(func() error {
				n, err := p.Int()
				ids = append(ids, dag.TaskID(n))
				return err
			})
			switch {
			case !isArray:
				ids = nil
			case ids == nil:
				ids = []dag.TaskID{}
			}
			g.Tasks = ids
		case "task":
			var n int64
			n, err = p.Int()
			g.Tasks = append(g.Tasks[:0], dag.TaskID(n))
		default:
			_, err = p.SkipValue()
		}
		return err
	})
}
