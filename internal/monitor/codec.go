package monitor

import (
	"encoding/json"

	"repro/internal/cloud"
	"repro/internal/dag"
	"repro/internal/jsonlite"
	"repro/internal/simtime"
)

// This file is the hand-rolled JSON codec for Snapshot, the plan endpoint's
// request body. A snapshot is posted and decoded once per MAPE interval and
// carries one record per task, so on big workflows the reflect-driven
// encoding/json round trip dominates the whole service path (profiled at
// ~3/4 of loadgen CPU). Without its Workflow a snapshot is numbers, enum
// names, and booleans only, which the jsonlite codec handles several times
// faster.
//
// The encoder is byte-identical to encoding/json (same field order,
// omitempty behavior, float formatting, and enum names), so journals,
// decision-stream pins, and golden files cannot tell the difference. The
// decoder implements the same semantics as encoding/json for this shape
// (merge into existing fields, last duplicate key wins, slice capacity
// reuse); the embedded Workflow and any escaped object key are delegated to
// encoding/json rather than re-implemented.

// snapshotNoMethods strips Snapshot's Marshal/UnmarshalJSON so the fallback
// paths can reuse the stock reflect codec without recursing.
type snapshotNoMethods Snapshot

// MarshalJSON implements json.Marshaler, byte-identical to the stock
// encoding of the same struct.
func (s *Snapshot) MarshalJSON() ([]byte, error) {
	if s.Workflow != nil {
		// Workflows carry task names (escaped strings); rare on the wire
		// — sessions strip them — so not worth hand-encoding.
		return json.Marshal((*snapshotNoMethods)(s))
	}
	return AppendSnapshotJSON(make([]byte, 0, s.encodedSizeHint()), s)
}

func (s *Snapshot) encodedSizeHint() int {
	return 128 + len(s.Tasks)*112 + len(s.Instances)*144 + len(s.RecentTransfers)*20
}

// AppendSnapshotJSON appends s encoded as JSON to dst and returns the
// extended buffer, allowing callers with a reusable buffer (the service
// client) to encode with zero garbage.
func AppendSnapshotJSON(dst []byte, s *Snapshot) ([]byte, error) {
	if s.Workflow != nil {
		b, err := json.Marshal((*snapshotNoMethods)(s))
		return append(dst, b...), err
	}
	var err error
	dst = append(dst, `{"now_s":`...)
	dst, err = appendFloat(dst, float64(s.Now), err)
	dst = append(dst, `,"interval_s":`...)
	dst, err = appendFloat(dst, float64(s.Interval), err)
	dst = append(dst, `,"charging_unit_s":`...)
	dst, err = appendFloat(dst, float64(s.ChargingUnit), err)
	dst = append(dst, `,"lag_time_s":`...)
	dst, err = appendFloat(dst, float64(s.LagTime), err)
	dst = append(dst, `,"slots_per_instance":`...)
	dst = appendInt(dst, int64(s.SlotsPerInstance))
	if s.MaxInstances != 0 {
		dst = append(dst, `,"max_instances":`...)
		dst = appendInt(dst, int64(s.MaxInstances))
	}
	if s.Delta {
		dst = append(dst, `,"delta":true`...)
	}
	dst = append(dst, `,"tasks":`...)
	if s.Tasks == nil {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, '[')
		for i := range s.Tasks {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst, err = appendTaskRecord(dst, &s.Tasks[i], err)
		}
		dst = append(dst, ']')
	}
	if len(s.Instances) > 0 {
		dst = append(dst, `,"instances":[`...)
		for i := range s.Instances {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst, err = appendInstanceRecord(dst, &s.Instances[i], err)
		}
		dst = append(dst, ']')
	}
	if len(s.RecentTransfers) > 0 {
		dst = append(dst, `,"recent_transfers_s":[`...)
		for i, v := range s.RecentTransfers {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst, err = appendFloat(dst, v, err)
		}
		dst = append(dst, ']')
	}
	dst = append(dst, '}')
	return dst, err
}

// appendFloat threads the first error through the append chain.
func appendFloat(dst []byte, f float64, err error) ([]byte, error) {
	dst, ferr := jsonlite.AppendFloat(dst, f)
	if err == nil {
		err = ferr
	}
	return dst, err
}

func appendInt(dst []byte, n int64) []byte {
	return jsonlite.AppendInt(dst, n)
}

func appendTaskRecord(dst []byte, r *TaskRecord, err error) ([]byte, error) {
	dst = append(dst, `{"id":`...)
	dst = appendInt(dst, int64(r.ID))
	dst = append(dst, `,"stage":`...)
	dst = appendInt(dst, int64(r.Stage))
	dst = append(dst, `,"state":`...)
	switch r.State {
	case Blocked:
		dst = append(dst, `"blocked"`...)
	case Ready:
		dst = append(dst, `"ready"`...)
	case Running:
		dst = append(dst, `"running"`...)
	case Completed:
		dst = append(dst, `"completed"`...)
	case Quarantined:
		dst = append(dst, `"quarantined"`...)
	default:
		if err == nil {
			_, err = r.State.MarshalJSON()
		}
		dst = append(dst, '0')
	}
	if r.InputSize != 0 {
		dst = append(dst, `,"input_size_mb":`...)
		dst, err = appendFloat(dst, r.InputSize, err)
	}
	if r.ReadyAt != 0 {
		dst = append(dst, `,"ready_at_s":`...)
		dst, err = appendFloat(dst, float64(r.ReadyAt), err)
	}
	if r.StartedAt != 0 {
		dst = append(dst, `,"started_at_s":`...)
		dst, err = appendFloat(dst, float64(r.StartedAt), err)
	}
	if r.Instance != 0 {
		dst = append(dst, `,"instance":`...)
		dst = appendInt(dst, int64(r.Instance))
	}
	if r.Slot != 0 {
		dst = append(dst, `,"slot":`...)
		dst = appendInt(dst, int64(r.Slot))
	}
	if r.Elapsed != 0 {
		dst = append(dst, `,"elapsed_s":`...)
		dst, err = appendFloat(dst, float64(r.Elapsed), err)
	}
	if r.TransferObserved {
		dst = append(dst, `,"transfer_observed":true`...)
	}
	if r.TransferTime != 0 {
		dst = append(dst, `,"transfer_time_s":`...)
		dst, err = appendFloat(dst, float64(r.TransferTime), err)
	}
	if r.CompletedAt != 0 {
		dst = append(dst, `,"completed_at_s":`...)
		dst, err = appendFloat(dst, float64(r.CompletedAt), err)
	}
	if r.ExecTime != 0 {
		dst = append(dst, `,"exec_time_s":`...)
		dst, err = appendFloat(dst, float64(r.ExecTime), err)
	}
	return append(dst, '}'), err
}

func appendInstanceRecord(dst []byte, r *InstanceRecord, err error) ([]byte, error) {
	dst = append(dst, `{"id":`...)
	dst = appendInt(dst, int64(r.ID))
	dst = append(dst, `,"state":`...)
	switch r.State {
	case cloud.Pending:
		dst = append(dst, `"pending"`...)
	case cloud.Active:
		dst = append(dst, `"active"`...)
	case cloud.Terminated:
		dst = append(dst, `"terminated"`...)
	default:
		if err == nil {
			_, err = r.State.MarshalJSON()
		}
		dst = append(dst, '0')
	}
	dst = append(dst, `,"slots":`...)
	dst = appendInt(dst, int64(r.Slots))
	if r.RequestedAt != 0 {
		dst = append(dst, `,"requested_at_s":`...)
		dst, err = appendFloat(dst, float64(r.RequestedAt), err)
	}
	if r.ActiveAt != 0 {
		dst = append(dst, `,"active_at_s":`...)
		dst, err = appendFloat(dst, float64(r.ActiveAt), err)
	}
	if r.TimeToNextCharge != 0 {
		dst = append(dst, `,"time_to_next_charge_s":`...)
		dst, err = appendFloat(dst, float64(r.TimeToNextCharge), err)
	}
	if len(r.Running) > 0 {
		dst = append(dst, `,"running":[`...)
		for i, id := range r.Running {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = appendInt(dst, int64(id))
		}
		dst = append(dst, ']')
	}
	if r.Draining {
		dst = append(dst, `,"draining":true`...)
	}
	return append(dst, '}'), err
}

// UnmarshalJSON implements json.Unmarshaler with the hand-rolled parser.
func (s *Snapshot) UnmarshalJSON(data []byte) error {
	return UnmarshalSnapshot(data, s)
}

// UnmarshalSnapshot decodes one JSON value into s with the same semantics as
// encoding/json: present fields are set, absent fields keep their current
// values, slice backing arrays are reused. Callers with a scratch snapshot
// must zero it first (fields the new body omits are otherwise stale).
//
// Calling it directly — instead of routing through json.Unmarshal — also
// skips the stock machinery's separate whole-input validation pass. What it
// accepts is JSON, nested at least one level below encoding/json's limit: a
// plan journal stores the body as posted, one level down in its record, and
// that record must stay valid JSON too.
func UnmarshalSnapshot(data []byte, s *Snapshot) error {
	p := jsonlite.Parser{Data: data, Depth: 1}
	if err := ParseSnapshot(&p, s); err != nil {
		return err
	}
	if !p.AtEnd() {
		return p.Errorf("unexpected data after top-level value")
	}
	return nil
}

// ParseSnapshot is UnmarshalSnapshot at the parser level: it decodes the value
// at p.Pos into s and leaves p just past it, so a snapshot embedded in a
// larger document — a journal record — is decoded in place. p.Depth must count
// the enclosing objects and arrays.
func ParseSnapshot(p *jsonlite.Parser, s *Snapshot) error {
	return p.Object(func(key []byte) error {
		var err error
		switch string(key) {
		case "now_s":
			var f float64
			f, err = p.Float()
			s.Now = simtime.Time(f)
		case "interval_s":
			var f float64
			f, err = p.Float()
			s.Interval = simtime.Duration(f)
		case "charging_unit_s":
			var f float64
			f, err = p.Float()
			s.ChargingUnit = simtime.Duration(f)
		case "lag_time_s":
			var f float64
			f, err = p.Float()
			s.LagTime = simtime.Duration(f)
		case "slots_per_instance":
			var n int64
			n, err = p.Int()
			s.SlotsPerInstance = int(n)
		case "max_instances":
			var n int64
			n, err = p.Int()
			s.MaxInstances = int(n)
		case "delta":
			s.Delta, err = p.Bool()
		case "workflow":
			// Workflow documents carry names and nested structure; use the
			// stock codec on just this subtree.
			var span []byte
			if span, err = p.SkipValue(); err == nil {
				err = json.Unmarshal(span, &s.Workflow)
			}
		case "tasks":
			s.Tasks, err = parseTaskRecords(p, s.Tasks)
		case "instances":
			s.Instances, err = parseInstanceRecords(p, s.Instances)
		case "recent_transfers_s":
			s.RecentTransfers, err = parseFloats(p, s.RecentTransfers)
		default:
			_, err = p.SkipValue()
		}
		return err
	})
}

// growRecord extends s by one element, reusing backing capacity. The reused
// element is NOT zeroed, matching encoding/json's slice-element merge.
func growRecord[T any](s []T) []T {
	if len(s) < cap(s) {
		return s[:len(s)+1]
	}
	var zero T
	return append(s, zero)
}

func parseTaskRecords(p *jsonlite.Parser, dst []TaskRecord) ([]TaskRecord, error) {
	out := dst[:0]
	isArray, err := p.Array(func() error {
		out = growRecord(out)
		return parseTaskRecord(p, &out[len(out)-1])
	})
	if !isArray && err == nil {
		return nil, nil
	}
	if out == nil && isArray {
		out = []TaskRecord{}
	}
	return out, err
}

func parseTaskRecord(p *jsonlite.Parser, r *TaskRecord) error {
	return p.Object(func(key []byte) error {
		var err error
		switch string(key) {
		case "id":
			var n int64
			n, err = p.Int()
			r.ID = dag.TaskID(n)
		case "stage":
			var n int64
			n, err = p.Int()
			r.Stage = dag.StageID(n)
		case "state":
			// TaskState decodes itself (a name, or a legacy integer);
			// hand it the raw value token.
			var span []byte
			if span, err = p.SkipValue(); err == nil {
				err = r.State.UnmarshalJSON(span)
			}
		case "input_size_mb":
			r.InputSize, err = p.Float()
		case "ready_at_s":
			var f float64
			f, err = p.Float()
			r.ReadyAt = simtime.Time(f)
		case "started_at_s":
			var f float64
			f, err = p.Float()
			r.StartedAt = simtime.Time(f)
		case "instance":
			var n int64
			n, err = p.Int()
			r.Instance = cloud.InstanceID(n)
		case "slot":
			var n int64
			n, err = p.Int()
			r.Slot = int(n)
		case "elapsed_s":
			var f float64
			f, err = p.Float()
			r.Elapsed = simtime.Duration(f)
		case "transfer_observed":
			r.TransferObserved, err = p.Bool()
		case "transfer_time_s":
			var f float64
			f, err = p.Float()
			r.TransferTime = simtime.Duration(f)
		case "completed_at_s":
			var f float64
			f, err = p.Float()
			r.CompletedAt = simtime.Time(f)
		case "exec_time_s":
			var f float64
			f, err = p.Float()
			r.ExecTime = simtime.Duration(f)
		default:
			_, err = p.SkipValue()
		}
		return err
	})
}

func parseInstanceRecords(p *jsonlite.Parser, dst []InstanceRecord) ([]InstanceRecord, error) {
	out := dst[:0]
	isArray, err := p.Array(func() error {
		out = growRecord(out)
		return parseInstanceRecord(p, &out[len(out)-1])
	})
	if !isArray && err == nil {
		return nil, nil
	}
	if out == nil && isArray {
		out = []InstanceRecord{}
	}
	return out, err
}

func parseInstanceRecord(p *jsonlite.Parser, r *InstanceRecord) error {
	return p.Object(func(key []byte) error {
		var err error
		switch string(key) {
		case "id":
			var n int64
			n, err = p.Int()
			r.ID = cloud.InstanceID(n)
		case "state":
			var span []byte
			if span, err = p.SkipValue(); err == nil {
				err = r.State.UnmarshalJSON(span)
			}
		case "slots":
			var n int64
			n, err = p.Int()
			r.Slots = int(n)
		case "requested_at_s":
			var f float64
			f, err = p.Float()
			r.RequestedAt = simtime.Time(f)
		case "active_at_s":
			var f float64
			f, err = p.Float()
			r.ActiveAt = simtime.Time(f)
		case "time_to_next_charge_s":
			var f float64
			f, err = p.Float()
			r.TimeToNextCharge = simtime.Duration(f)
		case "running":
			var ids []dag.TaskID
			isArray := false
			isArray, err = p.Array(func() error {
				n, err := p.Int()
				ids = append(ids, dag.TaskID(n))
				return err
			})
			if isArray && ids == nil {
				ids = []dag.TaskID{}
			}
			r.Running = ids
		case "draining":
			r.Draining, err = p.Bool()
		default:
			_, err = p.SkipValue()
		}
		return err
	})
}

func parseFloats(p *jsonlite.Parser, dst []float64) ([]float64, error) {
	out := dst[:0]
	isArray, err := p.Array(func() error {
		f, err := p.Float()
		out = append(out, f)
		return err
	})
	if !isArray && err == nil {
		return nil, nil
	}
	if out == nil && isArray {
		out = []float64{}
	}
	return out, err
}
