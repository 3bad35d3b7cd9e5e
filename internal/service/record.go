package service

import (
	"bytes"
	"encoding/json"
	"time"

	"repro/internal/dagio"
	"repro/internal/jsonlite"
	"repro/internal/monitor"
)

// The session WAL's record codec. Both record kinds are framed by hand —
// byte for byte what encoding/json writes for walRecord, which is the format
// contract (DESIGN.md "Session WAL grammar") — and read back by one verbatim
// reader that hands every line it cannot decode exactly as json.Unmarshal
// would to json.Unmarshal itself.

// walRecord is one journal line. Type "create" opens the log and carries
// everything needed to rebuild the controller: the workflow as a document, or,
// for a catalogue workflow, the key, the effective seed and the digest that
// regenerate and check it (workloads.Regenerate); each "plan" carries the
// snapshot as it was posted — in full, or as the delta against the interval
// before (monitor.Snapshot.Delta) — and the response that was (about to be)
// served. Neither kind is written by marshalling it: appendCreateRecord and
// appendPlanRecord frame the bytes its encoding would have.
type walRecord struct {
	Type string `json:"type"`

	// create
	ID             string          `json:"id,omitempty"`
	Policy         string          `json:"policy,omitempty"`
	Workflow       *dagio.Document `json:"workflow,omitempty"`
	WorkflowKey    string          `json:"workflow_key,omitempty"`
	WorkflowSeed   int64           `json:"workflow_seed,omitempty"`
	WorkflowDigest string          `json:"workflow_digest,omitempty"`
	Controller     *ControllerSpec `json:"controller,omitempty"`
	Tenant         string          `json:"tenant,omitempty"`
	DeadlineS      float64         `json:"deadline_s,omitempty"`
	CreatedAt      time.Time       `json:"created_at"`

	// plan
	Seq      int64             `json:"seq,omitempty"`
	Snapshot *monitor.Snapshot `json:"snapshot,omitempty"`
	Response *PlanResponse     `json:"response,omitempty"`
}

// appendCreateRecord appends the line that opens a WAL to dst: rec framed
// exactly as json.Marshal writes the struct, and a newline. rec's plan fields
// (Seq, Snapshot, Response) are not written; a create record has none. The
// workflow document is appended by its own hand codec rather than through a
// MarshalJSON method, which json.Marshal would re-scan. What json.Marshal
// refuses — a non-finite float — is an error here too, and the appended bytes
// are then not a record.
func appendCreateRecord(dst []byte, rec *walRecord) ([]byte, error) {
	var err error
	dst = append(dst, `{"type":`...)
	dst = jsonlite.AppendString(dst, rec.Type)
	if rec.ID != "" {
		dst = append(dst, `,"id":`...)
		dst = jsonlite.AppendString(dst, rec.ID)
	}
	if rec.Policy != "" {
		dst = append(dst, `,"policy":`...)
		dst = jsonlite.AppendString(dst, rec.Policy)
	}
	if rec.Workflow != nil {
		dst = append(dst, `,"workflow":`...)
		dst, err = dagio.AppendDocument(dst, rec.Workflow)
	}
	if rec.WorkflowKey != "" {
		dst = append(dst, `,"workflow_key":`...)
		dst = jsonlite.AppendString(dst, rec.WorkflowKey)
	}
	if rec.WorkflowSeed != 0 {
		dst = append(dst, `,"workflow_seed":`...)
		dst = jsonlite.AppendInt(dst, rec.WorkflowSeed)
	}
	if rec.WorkflowDigest != "" {
		dst = append(dst, `,"workflow_digest":`...)
		dst = jsonlite.AppendString(dst, rec.WorkflowDigest)
	}
	if rec.Controller != nil {
		// A handful of numbers, once per session.
		spec, serr := json.Marshal(rec.Controller)
		dst = append(append(dst, `,"controller":`...), spec...)
		err = firstErr(err, serr)
	}
	if rec.Tenant != "" {
		dst = append(dst, `,"tenant":`...)
		dst = jsonlite.AppendString(dst, rec.Tenant)
	}
	if rec.DeadlineS != 0 {
		var ferr error
		dst, ferr = jsonlite.AppendFloat(append(dst, `,"deadline_s":`...), rec.DeadlineS)
		err = firstErr(err, ferr)
	}
	created, terr := rec.CreatedAt.MarshalJSON()
	dst = append(append(dst, `,"created_at":`...), created...)
	return append(dst, '}', '\n'), firstErr(err, terr)
}

func firstErr(err, next error) error {
	if err != nil {
		return err
	}
	return next
}

// planRecordOverhead bounds what appendPlanRecord adds around the snapshot
// and the response.
const planRecordOverhead = 128

// appendPlanRecord appends one plan record line to dst around snapJSON, a body
// the parser accepted, and respJSON, a response's encoding. A newline in the
// body can only be JSON whitespace; it is written as a space to keep the
// record one line. For monitor.AppendSnapshotJSON's encoding of snap — what
// every Go client posts — the line is byte for byte what
// json.Encoder.Encode(walRecord{Type: "plan", Seq: seq, Snapshot: snap,
// Response: r}) writes: that equality is the WAL format contract (DESIGN.md)
// and what the differential and fuzz tests pin. Create-only fields are
// omitempty and vanish; created_at is not, so plan records carry the zero time.
func appendPlanRecord(dst []byte, seq int64, snapJSON, respJSON []byte) []byte {
	dst = append(dst, `{"type":"plan","created_at":"0001-01-01T00:00:00Z"`...)
	if seq != 0 {
		dst = append(dst, `,"seq":`...)
		dst = jsonlite.AppendInt(dst, seq)
	}
	dst = append(dst, `,"snapshot":`...)
	dst = append(dst, snapJSON...)
	body := dst[len(dst)-len(snapJSON):]
	for i := bytes.IndexByte(body, '\n'); i >= 0; i = bytes.IndexByte(body, '\n') {
		body[i] = ' '
		body = body[i+1:]
	}
	dst = append(dst, `,"response":`...)
	dst = append(dst, respJSON...)
	return append(dst, '}', '\n')
}

// walLine is one WAL line as replay reads it: the record, with the response
// kept as the bytes the client was sent (the shallower field shadows
// walRecord's).
type walLine struct {
	walRecord
	Response json.RawMessage `json:"response"`
}

// walFields are the keys the verbatim reader decodes, indexed by the field
// constants below: walRecord's JSON names, exactly.
var walFields = [...]string{"type", "id", "policy", "workflow", "workflow_key", "workflow_seed",
	"workflow_digest", "controller", "tenant", "deadline_s", "created_at", "seq", "snapshot", "response"}

const (
	fieldType = iota
	fieldID
	fieldPolicy
	fieldWorkflow
	fieldWorkflowKey
	fieldWorkflowSeed
	fieldWorkflowDigest
	fieldController
	fieldTenant
	fieldDeadline
	fieldCreatedAt
	fieldSeq
	fieldSnapshot
	fieldResponse
)

// readRecord decodes one WAL line into rec, which must be zero. A plan
// record's snapshot is decoded into body, the session's decode scratch —
// materialise may hand parts of it to the session snapshot by reference, so
// it must not be a buffer replay reuses on its own — and rec.Snapshot points
// at it; body is nil until the session exists. rec.Response may alias data.
//
// The verbatim reader decodes the line when it can answer exactly as
// json.Unmarshal would; every other line — a key that is not one of
// walFields exactly, a repeated key, an escaped or non-UTF-8 string, a null
// snapshot, anything it cannot parse — goes to json.Unmarshal unchanged. The
// reader must never be stricter: wal.Replay takes a callback error for a torn
// tail, and replay cuts the file there.
func readRecord(data []byte, rec *walLine, body *monitor.Snapshot) error {
	if readVerbatim(data, rec, body) {
		return nil
	}
	*rec = walLine{}
	// The one encoding/json read of a WAL line, for what the verbatim reader
	// does not claim.
	return json.Unmarshal(data, rec)
}

func readVerbatim(line []byte, rec *walLine, body *monitor.Snapshot) bool {
	p := &jsonlite.Parser{Data: line}
	return scanRecord(p, func(field int) error {
		var err error
		switch field {
		case fieldType:
			rec.Type, err = verbatimString(p)
		case fieldID:
			rec.ID, err = verbatimString(p)
		case fieldPolicy:
			rec.Policy, err = verbatimString(p)
		case fieldWorkflow:
			// A null leaves the pointer nil, as it does in encoding/json.
			if !p.Null() {
				rec.Workflow = new(dagio.Document)
				err = dagio.ParseDocument(p, rec.Workflow)
			}
		case fieldWorkflowKey:
			rec.WorkflowKey, err = verbatimString(p)
		case fieldWorkflowSeed:
			rec.WorkflowSeed, err = p.Int()
		case fieldWorkflowDigest:
			rec.WorkflowDigest, err = verbatimString(p)
		case fieldController:
			var span []byte
			if span, err = p.SkipValue(); err == nil {
				err = json.Unmarshal(span, &rec.Controller)
			}
		case fieldTenant:
			rec.Tenant, err = verbatimString(p)
		case fieldDeadline:
			rec.DeadlineS, err = p.Float()
		case fieldCreatedAt:
			// encoding/json hands a time.Time its raw value, null included.
			var span []byte
			if span, err = p.SkipValue(); err == nil {
				err = rec.CreatedAt.UnmarshalJSON(span)
			}
		case fieldSeq:
			rec.Seq, err = p.Int()
		case fieldSnapshot:
			if body == nil || p.Peek() == 'n' {
				return jsonlite.ErrInexact
			}
			rec.Snapshot = body
			err = monitor.ParseSnapshot(p, body)
		default:
			rec.Response, err = p.SkipValue()
		}
		return err
	})
}

// readHead reads a WAL line's type and seq: verbatim, skipping every other
// value after checking its syntax, or with json.Unmarshal into those two
// fields for a line the verbatim reader does not claim.
func readHead(data []byte) (typ string, seq int64, err error) {
	p := &jsonlite.Parser{Data: data}
	if scanRecord(p, func(field int) error {
		var err error
		switch field {
		case fieldType:
			typ, err = verbatimString(p)
		case fieldSeq:
			seq, err = p.Int()
		default:
			_, err = p.SkipValue()
		}
		return err
	}) {
		return typ, seq, nil
	}
	var head struct {
		Type string `json:"type"`
		Seq  int64  `json:"seq"`
	}
	err = json.Unmarshal(data, &head)
	return head.Type, head.Seq, err
}

// scanRecord walks the object p holds, a whole line, under the verbatim key
// rule (jsonlite.Parser.ExactField over walFields), handing each field to
// decode, which must consume its value from p. It reports whether the whole
// line was decoded.
func scanRecord(p *jsonlite.Parser, decode func(field int) error) bool {
	var seen uint32
	err := p.Object(func(key []byte) error {
		field, err := p.ExactField(key, &seen, walFields[:]...)
		if err != nil {
			return err
		}
		return decode(field)
	})
	return err == nil && p.AtEnd()
}

// verbatimString reads a string value; the record types come back as
// constants, so reading a plan record's type allocates nothing.
func verbatimString(p *jsonlite.Parser) (string, error) {
	raw, err := p.VerbatimString()
	switch string(raw) {
	case "plan":
		return "plan", err
	case "create":
		return "create", err
	}
	return string(raw), err
}
