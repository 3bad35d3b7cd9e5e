package service

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/cloud"
	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/predict"
	"repro/internal/sim"
	"repro/internal/simtime"
)

// planNoMethods strips PlanResponse's hand-rolled codec so encoding/json
// provides the reference bytes and reference decode semantics.
type planNoMethods PlanResponse

func randPlanString(rng *rand.Rand) string {
	pool := []string{
		"", "sess-1", "a<b>&c", `qu"ote\back`, "tab\tnl\nctl\x01",
		"unicode ☃", "bad\xffutf8",
	}
	return pool[rng.Intn(len(pool))]
}

func randPlanFloat(rng *rand.Rand) float64 {
	switch rng.Intn(5) {
	case 0:
		return 0
	case 1:
		return rng.Float64() * 1e-7
	case 2:
		return rng.Float64() * 1e22
	case 3:
		return -rng.Float64() * 42
	default:
		return float64(rng.Intn(100000)) / 8
	}
}

func randPlanResponse(rng *rand.Rand) *PlanResponse {
	r := &PlanResponse{
		SessionID: randPlanString(rng),
		Iteration: rng.Int63n(1000),
		Seq:       rng.Int63n(1000),
		Decision:  sim.Decision{Launch: rng.Intn(10) - 2},
		Degraded:  rng.Intn(3) == 0,
	}
	switch rng.Intn(3) {
	case 0:
	case 1:
		r.Decision.Releases = []sim.ReleaseOrder{}
	default:
		for i := 0; i < rng.Intn(4)+1; i++ {
			r.Decision.Releases = append(r.Decision.Releases, sim.ReleaseOrder{
				Instance:   cloud.InstanceID(rng.Intn(20)),
				AtBoundary: rng.Intn(2) == 0,
			})
		}
	}
	next := dag.TaskID(0)
	for i := 0; i < rng.Intn(6); i++ {
		g := PredictionGroup{
			Stage:     dag.StageID(rng.Intn(5)),
			Estimated: simtime.Duration(randPlanFloat(rng)),
			Policy:    randPlanString(rng),
			At:        simtime.Time(randPlanFloat(rng)),
		}
		switch rng.Intn(4) {
		case 0: // nil: "tasks":null
		case 1:
			g.Tasks = []dag.TaskID{}
		default:
			for j := 0; j < rng.Intn(5)+1; j++ {
				next += dag.TaskID(rng.Intn(3) + 1)
				g.Tasks = append(g.Tasks, next)
			}
		}
		r.Predictions = append(r.Predictions, g)
	}
	return r
}

// TestPlanResponseCodecMatchesStock cross-checks the hand-rolled
// PlanResponse codec against encoding/json on randomized values.
func TestPlanResponseCodecMatchesStock(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		r := randPlanResponse(rng)

		got, err := json.Marshal(r)
		if err != nil {
			t.Fatalf("seed %d: custom marshal: %v", seed, err)
		}
		want, err := json.Marshal((*planNoMethods)(r))
		if err != nil {
			t.Fatalf("seed %d: stock marshal: %v", seed, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("seed %d: encoding mismatch\ncustom: %s\nstock:  %s", seed, got, want)
		}

		var viaCustom PlanResponse
		if err := viaCustom.UnmarshalJSON(want); err != nil {
			t.Fatalf("seed %d: custom decode: %v", seed, err)
		}
		var viaStock planNoMethods
		if err := json.Unmarshal(want, &viaStock); err != nil {
			t.Fatalf("seed %d: stock decode: %v", seed, err)
		}
		if !reflect.DeepEqual(viaCustom, PlanResponse(viaStock)) {
			t.Fatalf("seed %d: decode mismatch\ncustom: %#v\nstock:  %#v", seed, viaCustom, viaStock)
		}
	}
}

// TestPlanResponseMarshalRejectsNonFinite mirrors encoding/json: NaN and Inf
// predictions are an encoding error, not silently emitted invalid JSON.
func TestPlanResponseMarshalRejectsNonFinite(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		r := &PlanResponse{Predictions: []PredictionGroup{{Estimated: simtime.Duration(bad)}}}
		if _, err := json.Marshal(r); err == nil {
			t.Fatalf("custom marshal accepted %v", bad)
		}
		if _, err := json.Marshal((*planNoMethods)(r)); err == nil {
			t.Fatalf("stock marshal accepted %v", bad)
		}
	}
}

// TestPlanResponseDecodeOddJSON feeds awkward JSON through both decoders and
// requires identical results, including error agreement.
func TestPlanResponseDecodeOddJSON(t *testing.T) {
	cases := []string{
		`{}`,
		` { "session_id" : "s" , "seq" : 3 } `,
		`{"decision":{"launch":2,"releases":null}}`,
		`{"decision":{"launch":0,"releases":[]}}`,
		`{"decision":{"launch":1,"releases":[{"instance":3},{"instance":4,"at_boundary":true}]}}`,
		`{"predictions":null}`,
		`{"predictions":[]}`,
		`{"predictions":[{"stage":1,"estimated_exec_s":1e-9,"unknown":[{}],"tasks":[4,7]}]}`,
		`{"predictions":[{"stage":1,"tasks":[]},{"stage":2},{"stage":3,"tasks":null}]}`,
		`{"predictions":[{"tasks":[1,2],"tasks":[3]},{"tasks":[1],"tasks":null}]}`,
		`{"predictions":[{"tasks":[1.5]}]}`,
		`{"predictions":[{"tasks":[1,]}]}`,
		`{"predictions":[{"tasks":{"0":1}}]}`,
		`{"seq":1,"seq":2}`,
		`{"degraded":true,"extra":"x"}`,
		`{"iteration":1.0}`,
		`{"iteration":1.5}`,
		`{"seq":"3"}`,
		`{"decision":{"launch":1}`,
		`{"seq":1} trailing`,
	}
	for i, src := range cases {
		var viaCustom PlanResponse
		errCustom := viaCustom.UnmarshalJSON([]byte(src))
		var viaStock planNoMethods
		errStock := json.Unmarshal([]byte(src), &viaStock)
		if (errCustom == nil) != (errStock == nil) {
			t.Fatalf("case %d %q: error mismatch: custom=%v stock=%v", i, src, errCustom, errStock)
		}
		if errCustom != nil {
			continue
		}
		if !reflect.DeepEqual(viaCustom, PlanResponse(viaStock)) {
			t.Fatalf("case %d %q: decode mismatch\ncustom: %#v\nstock:  %#v", i, src, viaCustom, viaStock)
		}
	}
}

// perTask is the per-task wavefront a controller's predictions stand for, the
// way core.Controller.State lists them.
func perTask(wave []core.Prediction) []core.PredictionState {
	var out []core.PredictionState
	for _, pr := range wave {
		out = append(out, core.PredictionState{Task: pr.Task, Stage: pr.Stage, Estimated: pr.EstimatedExec, Policy: pr.Policy.String(), At: pr.Time})
	}
	return out
}

// samePredictions is reflect.DeepEqual with floats compared by their bits: 0
// and -0 differ, and so do two NaNs only when their payloads do.
func samePredictions(a, b []core.PredictionState) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := a[i], b[i]
		if x.Task != y.Task || x.Stage != y.Stage || x.Policy != y.Policy ||
			math.Float64bits(x.Estimated) != math.Float64bits(y.Estimated) || math.Float64bits(x.At) != math.Float64bits(y.At) {
			return false
		}
	}
	return true
}

// TestWavefrontGrouping holds the fold to its contract on the shapes the
// catalogue streams do not reach: one group per distinct (stage, policy,
// estimate bits, instant), ordered by first task id, and — through the codec —
// an expansion equal to the per-task list, whatever scratch an earlier fold
// left behind.
func TestWavefrontGrouping(t *testing.T) {
	pr := func(task, stage int, pol predict.Policy, est, at float64) core.Prediction {
		return core.Prediction{Task: dag.TaskID(task), Stage: dag.StageID(stage), Policy: pol, EstimatedExec: est, Time: at}
	}
	negZero := math.Copysign(0, -1)
	cases := []struct {
		name   string
		wave   []core.Prediction
		groups int
		refuse bool
	}{
		{"empty wavefront", nil, 0, false},
		{"one task", []core.Prediction{pr(3, 1, predict.PolicyZero, 0, 60)}, 1, false},
		{"interleaved stages", []core.Prediction{
			pr(0, 0, predict.PolicyOGD, 2, 60), pr(1, 1, predict.PolicyOGD, 2, 60), pr(2, 0, predict.PolicyOGD, 2, 60),
			pr(3, 1, predict.PolicyOGD, 2, 60), pr(7, 0, predict.PolicyOGD, 2, 60)}, 2, false},
		{"same estimate, different policy", []core.Prediction{
			pr(0, 0, predict.PolicyRunningMedian, 2, 60), pr(1, 0, predict.PolicyCompletedMedian, 2, 60)}, 2, false},
		{"estimates one ulp apart", []core.Prediction{
			pr(0, 0, predict.PolicyOGD, 1.5, 60), pr(1, 0, predict.PolicyOGD, math.Nextafter(1.5, 2), 60), pr(2, 0, predict.PolicyOGD, 1.5, 60)}, 2, false},
		{"zero and negative zero", []core.Prediction{
			pr(0, 0, predict.PolicyZero, 0, 60), pr(1, 0, predict.PolicyZero, negZero, 60), pr(2, 0, predict.PolicyZero, 0, 60)}, 2, false},
		{"same triple, different instant", []core.Prediction{
			pr(0, 0, predict.PolicyZero, 0, 60), pr(1, 0, predict.PolicyZero, 0, 120)}, 2, false},
		{"NaN estimate", []core.Prediction{
			pr(0, 0, predict.PolicyOGD, math.NaN(), 60), pr(1, 0, predict.PolicyOGD, math.NaN(), 60)}, 1, true},
	}
	var g wavefrontGrouper // shared: each case folds into the scratch the one before left
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp := &PlanResponse{SessionID: "s", Seq: 1, Predictions: g.fold(tc.wave)}
			if len(resp.Predictions) != tc.groups {
				t.Fatalf("%d group(s), want %d: %+v", len(resp.Predictions), tc.groups, resp.Predictions)
			}
			for i, grp := range resp.Predictions {
				if len(grp.Tasks) == 0 || (i > 0 && grp.Tasks[0] <= resp.Predictions[i-1].Tasks[0]) {
					t.Fatalf("groups not ordered by first task id: %+v", resp.Predictions)
				}
				for j := 1; j < len(grp.Tasks); j++ {
					if grp.Tasks[j] <= grp.Tasks[j-1] {
						t.Fatalf("group %d ids not ascending: %v", i, grp.Tasks)
					}
				}
			}
			if got := expandPredictions(resp.Predictions); !samePredictions(got, perTask(tc.wave)) {
				t.Fatalf("expansion differs from the per-task list\ngot:  %+v\nwant: %+v", got, perTask(tc.wave))
			}
			body, err := resp.AppendJSON(nil)
			if (err != nil) != tc.refuse {
				t.Fatalf("encode error = %v, want refused = %v", err, tc.refuse)
			}
			if tc.refuse {
				return
			}
			if hasKey := bytes.Contains(body, []byte(`"predictions"`)); hasKey != (tc.groups > 0) {
				t.Fatalf("predictions key present = %v with %d group(s): %s", hasKey, tc.groups, body)
			}
			var back PlanResponse
			if err := back.UnmarshalJSON(body); err != nil {
				t.Fatal(err)
			}
			if got := expandPredictions(back.Predictions); !samePredictions(got, perTask(tc.wave)) {
				t.Fatalf("expansion after the codec differs from the per-task list\ngot:  %+v\nwant: %+v", got, perTask(tc.wave))
			}
		})
	}
}

// legacyPlanResponse is the response as every build before the grouped
// wavefront encoded it: one prediction record per pending task.
type legacyPlanResponse struct {
	SessionID   string                 `json:"session_id"`
	Iteration   int64                  `json:"iteration"`
	Seq         int64                  `json:"seq"`
	Decision    sim.Decision           `json:"decision"`
	Degraded    bool                   `json:"degraded,omitempty"`
	Predictions []core.PredictionState `json:"predictions,omitempty"`
}

// TestPlanResponseDecodesPerTaskShape is the forward-only half of the format
// change: a body (or WAL record tail) written per task decodes as one-task
// groups whose expansion is the list that was written. The stock decoder the
// differential tests compare against only knows the grouped shape, so the old
// one is pinned here.
func TestPlanResponseDecodesPerTaskShape(t *testing.T) {
	old := legacyPlanResponse{
		SessionID: "abc", Iteration: 4, Seq: 4, Decision: sim.Decision{Launch: 1, Releases: []sim.ReleaseOrder{{Instance: 2, AtBoundary: true}}},
		Predictions: []core.PredictionState{
			{Task: 2, Stage: 1, Estimated: 12.5, Policy: "p3-completed-median", At: 360},
			{Task: 5, Stage: 1, Estimated: 12.5, Policy: "p3-completed-median", At: 360},
			{Task: 9, Stage: 2, Estimated: 0, Policy: "p1-zero", At: 180},
		},
	}
	body, err := json.Marshal(old)
	if err != nil {
		t.Fatal(err)
	}
	var got PlanResponse
	if err := got.UnmarshalJSON(body); err != nil {
		t.Fatal(err)
	}
	if got.SessionID != old.SessionID || got.Iteration != old.Iteration || got.Seq != old.Seq || !reflect.DeepEqual(got.Decision, old.Decision) {
		t.Fatalf("envelope decoded as %+v, want %+v", got, old)
	}
	if len(got.Predictions) != len(old.Predictions) {
		t.Fatalf("%d group(s) from %d per-task records", len(got.Predictions), len(old.Predictions))
	}
	for i, g := range got.Predictions {
		if len(g.Tasks) != 1 || g.Tasks[0] != old.Predictions[i].Task {
			t.Errorf("record %d decoded as tasks %v, want [%d]", i, g.Tasks, old.Predictions[i].Task)
		}
	}
	if exp := expandPredictions(got.Predictions); !reflect.DeepEqual(exp, old.Predictions) {
		t.Fatalf("expansion differs from the list that was written\ngot:  %+v\nwant: %+v", exp, old.Predictions)
	}
	// A literal from a parent daemon, key order and all.
	literal := `{"session_id":"s","iteration":1,"seq":1,"decision":{"launch":0},"predictions":[{"task":1,"stage":1,"estimated_exec_s":0,"policy":"p1-zero","at_s":60}]}`
	got = PlanResponse{}
	if err := got.UnmarshalJSON([]byte(literal)); err != nil {
		t.Fatal(err)
	}
	want := []core.PredictionState{{Task: 1, Stage: 1, Estimated: 0, Policy: "p1-zero", At: 60}}
	if exp := expandPredictions(got.Predictions); !reflect.DeepEqual(exp, want) {
		t.Fatalf("literal expands to %+v, want %+v", exp, want)
	}
}
