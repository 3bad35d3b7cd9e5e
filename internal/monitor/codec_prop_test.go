package monitor_test

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/cloud"
	"repro/internal/dag"
	"repro/internal/jsonlite"
	"repro/internal/monitor"
	"repro/internal/simtime"
)

// snapNoMethods strips Snapshot's hand-rolled codec so encoding/json
// provides the reference bytes and reference decode semantics.
type snapNoMethods monitor.Snapshot

func randPropFloat(rng *rand.Rand) float64 {
	switch rng.Intn(6) {
	case 0:
		return 0
	case 1:
		return float64(rng.Intn(10000))
	case 2:
		return rng.Float64() * 1e-7 // formats in exponent form
	case 3:
		return rng.Float64() * 1e22 // formats in exponent form
	case 4:
		return -rng.Float64() * 123.456
	default:
		return rng.NormFloat64() * 1e4
	}
}

func randPropString(rng *rand.Rand) string {
	pool := []string{
		"", "plain", "a<b>&c", `qu"ote\back`, "tab\tnl\nctl\x01",
		"unicode ☃ line sep ", "bad\xffutf8",
	}
	return pool[rng.Intn(len(pool))]
}

func randSnapshot(rng *rand.Rand) *monitor.Snapshot {
	s := &monitor.Snapshot{
		Now:              simtime.Time(randPropFloat(rng)),
		Interval:         simtime.Duration(randPropFloat(rng)),
		ChargingUnit:     simtime.Duration(randPropFloat(rng)),
		LagTime:          simtime.Duration(randPropFloat(rng)),
		SlotsPerInstance: rng.Intn(8),
		MaxInstances:     rng.Intn(3), // 0 exercises omitempty
	}
	switch rng.Intn(4) {
	case 0: // nil Tasks -> encodes as null
	case 1:
		s.Tasks = []monitor.TaskRecord{}
	default:
		for i := 0; i < rng.Intn(6)+1; i++ {
			s.Tasks = append(s.Tasks, monitor.TaskRecord{
				ID:               dag.TaskID(i),
				Stage:            dag.StageID(rng.Intn(4)),
				State:            monitor.TaskState(rng.Intn(5)),
				InputSize:        randPropFloat(rng),
				ReadyAt:          simtime.Time(randPropFloat(rng)),
				StartedAt:        simtime.Time(randPropFloat(rng)),
				Instance:         cloud.InstanceID(rng.Intn(3)),
				Slot:             rng.Intn(3),
				Elapsed:          simtime.Duration(randPropFloat(rng)),
				TransferObserved: rng.Intn(2) == 0,
				TransferTime:     simtime.Duration(randPropFloat(rng)),
				CompletedAt:      simtime.Time(randPropFloat(rng)),
				ExecTime:         simtime.Duration(randPropFloat(rng)),
			})
		}
	}
	if rng.Intn(3) > 0 {
		for i := 0; i < rng.Intn(4)+1; i++ {
			inst := monitor.InstanceRecord{
				ID:               cloud.InstanceID(i),
				State:            cloud.State(rng.Intn(3)),
				Slots:            rng.Intn(4),
				RequestedAt:      simtime.Time(randPropFloat(rng)),
				ActiveAt:         simtime.Time(randPropFloat(rng)),
				TimeToNextCharge: simtime.Duration(randPropFloat(rng)),
				Draining:         rng.Intn(2) == 0,
			}
			for j := 0; j < rng.Intn(3); j++ {
				inst.Running = append(inst.Running, dag.TaskID(j))
			}
			s.Instances = append(s.Instances, inst)
		}
	}
	for i := 0; i < rng.Intn(4); i++ {
		s.RecentTransfers = append(s.RecentTransfers, simtime.Duration(randPropFloat(rng)))
	}
	s.Delta = rng.Intn(3) == 0 // drawn last: earlier draws keep their seeds
	return s
}

// TestSnapshotCodecMatchesStock cross-checks the hand-rolled codec against
// encoding/json on randomized snapshots: the encoder must be byte-identical
// and the decoder must reconstruct the same value (including nil-vs-empty
// slice shapes) from the stock bytes.
func TestSnapshotCodecMatchesStock(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		snap := randSnapshot(rng)

		got, err := json.Marshal(snap)
		if err != nil {
			t.Fatalf("seed %d: custom marshal: %v", seed, err)
		}
		want, err := json.Marshal((*snapNoMethods)(snap))
		if err != nil {
			t.Fatalf("seed %d: stock marshal: %v", seed, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("seed %d: encoding mismatch\ncustom: %s\nstock:  %s", seed, got, want)
		}

		var viaCustom monitor.Snapshot
		if err := monitor.UnmarshalSnapshot(want, &viaCustom); err != nil {
			t.Fatalf("seed %d: custom decode: %v", seed, err)
		}
		var viaStock snapNoMethods
		if err := json.Unmarshal(want, &viaStock); err != nil {
			t.Fatalf("seed %d: stock decode: %v", seed, err)
		}
		if !reflect.DeepEqual(viaCustom, monitor.Snapshot(viaStock)) {
			t.Fatalf("seed %d: decode mismatch\ncustom: %#v\nstock:  %#v", seed, viaCustom, viaStock)
		}
	}
}

// TestSnapshotDecodeOddJSON feeds hand-written awkward JSON — whitespace,
// unknown fields, nulls, empty arrays, duplicate keys, escaped key names,
// legacy integer enums — through both decoders and requires identical
// results, including error agreement.
func TestSnapshotDecodeOddJSON(t *testing.T) {
	cases := []string{
		`{}`,
		` { "now_s" : 1.5 , "tasks" : null } `,
		`{"tasks":[],"instances":[],"recent_transfers_s":[]}`,
		`{"unknown":{"nested":[1,2,{"x":null}]},"interval_s":2}`,
		`{"now_s":1,"now_s":2}`,
		`{"tasks":[{"id":3,"stage":1,"state":"running"}]}`,
		`{"tasks":[{"id":1,"state":"4"},{"id":2,"state":"quarantined"}]}`,
		`{"instances":[{"id":7,"state":"active","slots":2,"running":[]},{"id":8,"state":"2","running":null}]}`,
		`{"now_s":1e3,"interval_s":1.5E+2,"lag_time_s":-0}`,
		`{"tasks":[{"id":1,"input_size_mb":0.25,"transfer_observed":true}],"max_instances":12}`,
		`{"tasks":[{"state":"bogus"}]}`,
		`{"now_s":"nan"}`,
		`{"tasks":[{"id":1}`,
		`{"now_s":1}trailing`,
	}
	cases = append(cases, notJSONBodies...)
	for i, src := range cases {
		var viaCustom monitor.Snapshot
		errCustom := monitor.UnmarshalSnapshot([]byte(src), &viaCustom)
		var viaStock snapNoMethods
		errStock := json.Unmarshal([]byte(src), &viaStock)
		if (errCustom == nil) != (errStock == nil) {
			t.Fatalf("case %d %q: error mismatch: custom=%v stock=%v", i, src, errCustom, errStock)
		}
		if errCustom != nil {
			continue
		}
		if !reflect.DeepEqual(viaCustom, monitor.Snapshot(viaStock)) {
			t.Fatalf("case %d %q: decode mismatch\ncustom: %#v\nstock:  %#v", i, src, viaCustom, viaStock)
		}
	}
}

// TestSnapshotDecodeMerges pins encoding/json's merge semantics: decoding
// into a non-zero snapshot keeps fields the document doesn't mention, and
// reused slice capacity must not leak stale element fields.
func TestSnapshotDecodeMerges(t *testing.T) {
	base := func() monitor.Snapshot {
		return monitor.Snapshot{
			Now:              99,
			SlotsPerInstance: 4,
			Tasks: []monitor.TaskRecord{
				{ID: 1, State: monitor.Running, Elapsed: 7, Slot: 2},
				{ID: 2, State: monitor.Completed, ExecTime: 3},
			},
			RecentTransfers: []simtime.Duration{1, 2, 3},
		}
	}
	src := `{"interval_s":5,"tasks":[{"id":1,"state":"completed"}],"recent_transfers_s":[9]}`

	viaCustom := base()
	if err := monitor.UnmarshalSnapshot([]byte(src), &viaCustom); err != nil {
		t.Fatalf("custom decode: %v", err)
	}
	viaStock := snapNoMethods(base())
	if err := json.Unmarshal([]byte(src), &viaStock); err != nil {
		t.Fatalf("stock decode: %v", err)
	}
	if !reflect.DeepEqual(viaCustom, monitor.Snapshot(viaStock)) {
		t.Fatalf("merge mismatch\ncustom: %#v\nstock:  %#v", viaCustom, viaStock)
	}
}

// notJSONBodies are snapshots made invalid in ways a bracket-counting scanner
// lets through: mismatched brackets, a missing colon inside a nested value,
// and control bytes in a key and in a string.
var notJSONBodies = []string{
	`{"x":[1},"interval_s":60}`,
	`{"x":{"a" 1},"interval_s":60}`,
	"{\"x\x01\":1,\"interval_s\":60}",
	"{\"x\":\"a\x01b\",\"interval_s\":60}",
	`{"tasks":[{"id":1,"state":"running"]},"interval_s":60}`,
}

// FuzzUnmarshalSnapshotIsJSON holds the plan body parser to the property the
// journal relies on: whatever it accepts is JSON, and stays JSON one level
// down in an enclosing record.
func FuzzUnmarshalSnapshotIsJSON(f *testing.F) {
	nested := func(n int) string { return strings.Repeat("[", n) + strings.Repeat("]", n) }
	for _, s := range append(notJSONBodies,
		`{"interval_s":60,"tasks":[{"id":0,"stage":0,"state":2}]}`,
		"{\"note\":\"bad\xffutf8\",\"del\x7f\":1}",
		`{"\u0069nterval_s":60,"tasks":[{"\u0069d":0,"state":"ready"}]}`,
		`{"x":`+nested(jsonlite.MaxDepth-2)+`}`, `{"x":`+nested(jsonlite.MaxDepth-1)+`}`,
		`{"x":`+nested(jsonlite.MaxDepth)+`}`,
	) {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var s monitor.Snapshot
		if err := monitor.UnmarshalSnapshot(data, &s); err != nil {
			return
		}
		if !json.Valid(data) {
			t.Fatalf("%q: accepted, but it is not JSON", data)
		}
		if rec := append(append([]byte(`{"snapshot":`), data...), '}'); !json.Valid(rec) {
			t.Fatalf("%q: accepted, but a record framed around it is not JSON", data)
		}
	})
}
