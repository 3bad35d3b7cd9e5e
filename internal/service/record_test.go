package service

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"regexp"
	"testing"
	"time"

	"repro/internal/dagio"
	"repro/internal/monitor"
	"repro/internal/workloads"
)

// marshalCreateRecord is the create record's format contract: json.Marshal of
// the walRecord and a newline, what appendCreate wrote before the framer.
func marshalCreateRecord(rec *walRecord) ([]byte, error) {
	b, err := json.Marshal(rec)
	return append(b, '\n'), err
}

// requireSameCreateRecord holds appendCreateRecord to json.Marshal on one
// record: the same bytes, or an error from both.
func requireSameCreateRecord(t testing.TB, name string, rec *walRecord) {
	t.Helper()
	want, wantErr := marshalCreateRecord(rec)
	got, gotErr := appendCreateRecord(nil, rec)
	if (wantErr != nil) != (gotErr != nil) {
		t.Fatalf("%s: json.Marshal error %v, framer error %v", name, wantErr, gotErr)
	}
	if wantErr == nil && !bytes.Equal(got, want) {
		t.Fatalf("%s: framed create record differs from json.Marshal's\nframed:  %s\nmarshal: %s",
			name, firstDiff(got, want), firstDiff(want, got))
	}
}

// catalogueCreateRecord is the create record a daemon journals for key's
// workflow at seed posted inline, as a document.
func catalogueCreateRecord(t testing.TB, key string, seed int64) *walRecord {
	t.Helper()
	run, ok := workloads.ByKey(key)
	if !ok {
		t.Fatalf("unknown catalogue key %q", key)
	}
	return &walRecord{Type: "create", ID: "0123456789abcdef0123456789abcdef", Policy: "wire",
		Workflow: dagio.Encode(run.Generate(seed)), CreatedAt: time.Date(2026, 3, 1, 12, 30, 45, 123456789, time.UTC)}
}

// keyedCreateRecord is the create record a daemon journals for a session
// created by key and seed: the two and the workflow's digest, no document.
func keyedCreateRecord(t testing.TB, key string, seed int64) *walRecord {
	t.Helper()
	wf, seed, err := workloads.Resolve(nil, key, seed)
	if err != nil {
		t.Fatal(err)
	}
	return &walRecord{Type: "create", ID: "0123456789abcdef0123456789abcdef", Policy: "wire",
		WorkflowKey: key, WorkflowSeed: seed, WorkflowDigest: workloads.Digest(wf),
		CreatedAt: time.Date(2026, 3, 1, 12, 30, 45, 123456789, time.UTC)}
}

// edgeDocument is a small document with one of every optional field.
func edgeDocument() *dagio.Document {
	return &dagio.Document{Name: "edge", Stages: []dagio.StageDoc{{ID: 0, Name: "a"}, {ID: 1, Name: "b"}},
		Tasks: []dagio.TaskDoc{
			{ID: 0, Stage: 0, Name: "t0", ExecTime: 12.5, TransferTime: 1e-7, InputSize: 1e21, OutputSize: 3},
			{ID: 1, Stage: 1, Deps: []int{0}, ExecTime: 0},
			{ID: 2, Stage: 1, Deps: []int{}, ExecTime: -0.0},
		}}
}

// TestCreateRecordMatchesMarshal is the differential test behind the framed
// create record: for every catalogue workflow at two seeds, inline and keyed,
// and the edge shapes, appendCreateRecord writes json.Marshal's bytes, or both
// refuse — and a refused record writes nothing to the journal.
func TestCreateRecordMatchesMarshal(t *testing.T) {
	for _, key := range workloads.Keys() {
		for _, seed := range []int64{1, 2} {
			requireSameCreateRecord(t, key, catalogueCreateRecord(t, key, seed))
			requireSameCreateRecord(t, key+" keyed", keyedCreateRecord(t, key, seed))
		}
	}
	for _, seed := range []int64{-1, math.MinInt64, math.MaxInt64} {
		rec := keyedCreateRecord(t, "tpch6-s", 1)
		rec.WorkflowSeed = seed
		requireSameCreateRecord(t, "keyed seed", rec)
	}
	for _, name := range []string{"<&>", "a\u2028b\u2029", "bad\xffutf8", "quote\"back\\slash\ttab\x01", "é"} {
		rec := keyedCreateRecord(t, "tpch6-s", 1)
		rec.WorkflowKey, rec.WorkflowDigest = name, name
		requireSameCreateRecord(t, "keyed strings "+name, rec)
	}

	withDoc := func(edit func(*dagio.Document)) *walRecord {
		doc := edgeDocument()
		edit(doc)
		return &walRecord{Type: "create", ID: "s", Policy: "wire", Workflow: doc}
	}
	for _, name := range []string{"<&>", "a\u2028b\u2029", "bad\xffutf8", "quote\"back\\slash\ttab\x01", "é"} {
		requireSameCreateRecord(t, "workflow name "+name, withDoc(func(d *dagio.Document) { d.Name = name }))
		requireSameCreateRecord(t, "stage name "+name, withDoc(func(d *dagio.Document) { d.Stages[1].Name = name }))
		requireSameCreateRecord(t, "task name "+name, withDoc(func(d *dagio.Document) { d.Tasks[0].Name = name }))
		requireSameCreateRecord(t, "id "+name, &walRecord{Type: "create", ID: name, Policy: name, Tenant: name, Workflow: edgeDocument()})
	}
	for name, meta := range map[string]any{
		"string meta": "<b>", "map meta": map[string]any{"z": 1.5, "a": []any{"x", nil, true}},
		"nil pointer meta": (*int)(nil), "marshaler meta": json.RawMessage(` { "k" : [1, 2] } `),
	} {
		requireSameCreateRecord(t, name, withDoc(func(d *dagio.Document) { d.Meta = meta }))
	}
	requireSameCreateRecord(t, "nil stages, tasks", withDoc(func(d *dagio.Document) { d.Stages, d.Tasks = nil, nil }))
	requireSameCreateRecord(t, "empty stages, tasks", withDoc(func(d *dagio.Document) { d.Stages, d.Tasks = []dagio.StageDoc{}, []dagio.TaskDoc{} }))
	requireSameCreateRecord(t, "empty document", &walRecord{Type: "create", Workflow: &dagio.Document{}})
	requireSameCreateRecord(t, "no workflow", &walRecord{Type: "create", ID: "s"})

	for _, c := range []struct {
		name string
		spec *ControllerSpec
	}{{"no controller", nil}, {"empty controller", &ControllerSpec{}},
		{"controller", &ControllerSpec{RestartFrac: 0.25, MinPool: 2, LearningRate: 1e-9, Deadline: 3600, Slack: 0.1}}} {
		for _, tenant := range []string{"", "acme"} {
			for _, deadline := range []float64{0, 7200.5, 1e21} {
				for _, rec := range []*walRecord{catalogueCreateRecord(t, "genome-s", 1), keyedCreateRecord(t, "genome-s", 1)} {
					rec.Controller, rec.Tenant, rec.DeadlineS = c.spec, tenant, deadline
					requireSameCreateRecord(t, c.name+"/"+tenant, rec)
				}
			}
		}
	}
	for name, at := range map[string]time.Time{
		"zero time": {}, "zoned time": time.Date(2026, 1, 2, 3, 4, 5, 6, time.FixedZone("x", -3*3600)),
		"year 10000": time.Date(10000, 1, 1, 0, 0, 0, 0, time.UTC),
	} {
		rec := catalogueCreateRecord(t, "genome-s", 1)
		rec.CreatedAt = at
		requireSameCreateRecord(t, name, rec)
	}

	// The shapes neither encoder may accept must be refused, and refused
	// before anything reaches the journal.
	refused := map[string]*walRecord{
		"NaN exec time":      withDoc(func(d *dagio.Document) { d.Tasks[1].ExecTime = math.NaN() }),
		"infinite input":     withDoc(func(d *dagio.Document) { d.Tasks[0].InputSize = math.Inf(1) }),
		"NaN deadline":       {Type: "create", DeadlineS: math.NaN()},
		"NaN controller":     {Type: "create", Controller: &ControllerSpec{Slack: math.NaN()}},
		"unencodable meta":   withDoc(func(d *dagio.Document) { d.Meta = func() {} }),
		"out-of-range clock": {Type: "create", CreatedAt: time.Date(-1, 1, 1, 0, 0, 0, 0, time.UTC)},
	}
	srv := New(Config{JournalDir: t.TempDir()})
	for name, rec := range refused {
		requireSameCreateRecord(t, name, rec)
		if _, err := appendCreateRecord(nil, rec); err == nil {
			t.Errorf("%s: the framer accepted it", name)
		}
		j, err := srv.openJournalAt(srv.journalPath("refused"), 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := j.appendCreate(rec); err == nil {
			t.Errorf("%s: appendCreate accepted it", name)
		}
		j.close(false)
		if st, err := os.Stat(srv.journalPath("refused")); err != nil || st.Size() != 0 {
			t.Fatalf("%s: a refused create record left %d bytes in the journal (%v)", name, st.Size(), err)
		}
	}
}

// writtenWALLines are the lines the verbatim reader exists for: every line
// of the four golden WALs, then each catalogue workflow's create records —
// keyed, and posted inline — and plan records as a Go client's session
// journals them.
func writtenWALLines(t testing.TB) (golden, catalogue [][]byte) {
	t.Helper()
	for _, path := range []string{goldenWAL, goldenV1WAL, goldenV2WAL, goldenKeyedWAL} {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		golden = append(golden, splitLines(data)...)
	}
	for _, key := range workloads.Keys() {
		for _, rec := range []*walRecord{keyedCreateRecord(t, key, 1), catalogueCreateRecord(t, key, 1)} {
			create, err := appendCreateRecord(nil, rec)
			if err != nil {
				t.Fatal(err)
			}
			catalogue = append(catalogue, bytes.TrimSuffix(create, []byte{'\n'}))
		}
		for _, p := range recordedPlans(t, key) {
			respJSON, err := p.resp.AppendJSON(nil)
			if err != nil {
				t.Fatal(err)
			}
			rec := appendPlanRecord(nil, p.resp.Seq, p.body, respJSON)
			catalogue = append(catalogue, rec[:len(rec)-1])
		}
	}
	return golden, catalogue
}

// lineMutations are the lines the verbatim reader must hand to encoding/json
// or decode exactly as it does: case-variant, repeated, unknown and escaped
// keys, escaped and non-UTF-8 strings, a workflow in a plan body, a missing
// seq, nulls, whitespace and an out-of-range number.
func lineMutations(line []byte) [][]byte {
	var out [][]byte
	add := func(b []byte) {
		if !bytes.Equal(b, line) {
			out = append(out, b)
		}
	}
	replace := func(old, new string) { add(bytes.Replace(line, []byte(old), []byte(new), 1)) }
	for _, key := range walFields {
		quoted := `"` + key + `":`
		replace(quoted, `"`+string(bytes.ToUpper([]byte(key[:1])))+key[1:]+`":`)
		replace(quoted, `"`+key[:len(key)-1]+`\u00`+string("0123456789abcdef"[key[len(key)-1]>>4])+
			string("0123456789abcdef"[key[len(key)-1]&0xF])+`":`)
		replace(quoted, quoted+`null,`+quoted)
		replace(quoted, `  `+quoted+` `)
		replace(`{`, `{`+quoted+`null,`)
	}
	replace(`{`, `{"x":1,`)
	replace(`{`, `{"seq":7,`)
	replace(`"id":"`, "\"id\":\"\xff")
	replace(`"name":"`, "\"name\":\"\xc3(")
	replace(`"name":"`, `"name":"<&>`)
	replace(`"snapshot":{`, `"snapshot":{"workflow":{"name":"w","stages":[{"id":0,"name":"s"}],"tasks":[{"id":0,"stage":0,"exec_time_s":1}]},`)
	replace(`{"type":"plan"`, `{"workflow":{"name":"w","stages":[],"tasks":null,"meta":{"k":[1,"v"]}},"type":"plan"`)
	replace(`{"type":"plan"`, `{"workflow":{"name":"w","stages":[{"id":0,"name":"s"}],"tasks":[{"id":0,"stage":0,"deps":[],"exec_time_s":1}]},"type":"plan"`)
	replace(`"deps":[0]`, `"deps":[]`)
	replace(`"tasks":[{"id":0,"stage":0,`, `"tasks":[null,{"id":0,"stage":0,"ID":1,`)
	replace(`"deps":[`, `"deps":null,"Deps":[`)
	// encoding/json merges a repeated key's value into the first one's.
	replace(`"tasks":[`, `"tasks":[{"name":"ghost","deps":[7]}],"tasks":[`)
	replace(`{"type":"create"`, `{"workflow":{"meta":1},"type":"create"`)
	replace(`"exec_time_s":`, `"exec_time_s":1e999,"input_size_mb":`)
	replace(`"seq":`, `"seq":1e999,"deadline_s":`)
	seed := regexp.MustCompile(`"workflow_seed":-?[0-9]+`)
	for _, v := range []string{"null", `"3"`, "3.0", "1e999", "-0", "-9223372036854775809", "9223372036854775807"} {
		add(seed.ReplaceAll(line, []byte(`"workflow_seed":`+v)))
	}
	replace(`"workflow_key":"`, `"workflow_key":"\u0041`)
	add(regexp.MustCompile(`"workflow_digest":"[^"]*"`).ReplaceAll(line, []byte(`"workflow_digest":null`)))
	replace(`"workflow_key":`, `"workflow":{"name":"w","stages":[],"tasks":[]},"workflow_key":`)
	replace(`"created_at":"0001-01-01T00:00:00Z"`, `"created_at":"2026-01-02T03:04:05.6+01:00"`)
	replace(`"created_at":"0001-01-01T00:00:00Z"`, `"created_at":5`)
	replace(`"created_at":"0001-01-01T00:00:00Z"`, `"created_at":null`)
	add(regexp.MustCompile(`,"seq":[0-9]+`).ReplaceAll(line, nil))
	add(append(append([]byte(" \t"), line...), "\r\n "...))
	add(append(append([]byte(nil), line...), "{}"...))
	add(line[:len(line)/2])
	return out
}

// requireReaderAgrees is the differential check on one line: readRecord
// (verbatim, or its encoding/json fallback) and readHead must answer exactly
// as json.Unmarshal does — the same error-or-not and the same values — and
// whatever the verbatim reader claims must be a line json.Unmarshal accepts.
func requireReaderAgrees(t testing.TB, line []byte) {
	t.Helper()
	var want walLine
	wantErr := json.Unmarshal(line, &want)

	var got walLine
	var body monitor.Snapshot
	claimed := readVerbatim(line, &got, &body)
	if claimed && wantErr != nil {
		t.Fatalf("the verbatim reader decoded a line json.Unmarshal rejects (%v): %.200q", wantErr, line)
	}
	got, body = walLine{}, monitor.Snapshot{}
	if err := readRecord(line, &got, &body); (err != nil) != (wantErr != nil) {
		t.Fatalf("readRecord error %v, json.Unmarshal error %v: %.200q", err, wantErr, line)
	}
	if wantErr == nil {
		if !reflect.DeepEqual(got.walRecord, want.walRecord) {
			t.Fatalf("readRecord (verbatim %v) decoded a different record than json.Unmarshal: %.200q\ngot:  %+v\nwant: %+v",
				claimed, line, got.walRecord, want.walRecord)
		}
		if !bytes.Equal(got.Response, want.Response) || (got.Response == nil) != (want.Response == nil) {
			t.Fatalf("readRecord kept response %.80q, json.Unmarshal %.80q", got.Response, want.Response)
		}
	}

	var head struct {
		Type string `json:"type"`
		Seq  int64  `json:"seq"`
	}
	headErr := json.Unmarshal(line, &head)
	typ, seq, err := readHead(line)
	if (err != nil) != (headErr != nil) || (err == nil && (typ != head.Type || seq != head.Seq)) {
		t.Fatalf("readHead = %q, %d, %v; json.Unmarshal = %q, %d, %v: %.200q", typ, seq, err, head.Type, head.Seq, headErr, line)
	}
}

// TestWALRecordReaderClaimsWrittenLines pins the fast path: every line a
// journal holds — the golden WALs, every catalogue workflow's create and plan
// records — is decoded by the verbatim reader, not handed to encoding/json.
// (FuzzWALRecordReader's seeds hold each to json.Unmarshal.)
func TestWALRecordReaderClaimsWrittenLines(t *testing.T) {
	golden, catalogue := writtenWALLines(t)
	for _, line := range append(golden, catalogue...) {
		var rec walLine
		var body monitor.Snapshot
		if !readVerbatim(line, &rec, &body) {
			t.Errorf("the verbatim reader leaves a written line to encoding/json: %.200q", line)
		}
	}
}

// FuzzWALRecordReader holds the WAL record reader to json.Unmarshal from the
// journal lines this package writes and their mutations: the reader may hand
// any line to encoding/json, but what it decodes itself json.Unmarshal must
// accept and decode to the same record and response bytes.
func FuzzWALRecordReader(f *testing.F) {
	golden, catalogue := writtenWALLines(f)
	for _, line := range golden {
		f.Add(line)
		for _, m := range lineMutations(line) {
			f.Add(m)
		}
	}
	// The golden lines' mutations cover plan records; the catalogue's create
	// records are mutated too, where they are small enough to fuzz.
	for _, line := range catalogue {
		f.Add(line)
		if bytes.HasPrefix(line, []byte(`{"type":"create"`)) && len(line) < 1<<16 {
			for _, m := range lineMutations(line) {
				f.Add(m)
			}
		}
	}
	f.Fuzz(func(t *testing.T, line []byte) {
		requireReaderAgrees(t, line)
	})
}

// TestReplayRecordDecodeAllocs bounds what replay's record decode allocates:
// each plan record of the genome-s and Genome-L journals, read into one
// session's body scratch as replay reads it. The task records land in the
// scratch's kept array; what is left is the instance and transfer lists
// (materialise may keep those by reference, so they are never reused) and
// the parser's closures.
func TestReplayRecordDecodeAllocs(t *testing.T) {
	if raceEnabled() {
		t.Skip("the race detector's instrumentation allocates")
	}
	const bound = 24
	for _, key := range journalKeys {
		var lines [][]byte
		for _, p := range recordedPlans(t, key) {
			respJSON, err := p.resp.AppendJSON(nil)
			if err != nil {
				t.Fatal(err)
			}
			rec := appendPlanRecord(nil, p.resp.Seq, p.body, respJSON)
			lines = append(lines, rec[:len(rec)-1])
		}
		sess := &Session{}
		i := 0
		// AllocsPerRun's warm-up call decodes the first record.
		got := testing.AllocsPerRun(len(lines)-1, func() {
			var rec walLine
			if !readVerbatim(lines[i], &rec, sess.resetBodyScratch()) {
				t.Fatalf("%s: record %d is left to encoding/json", key, i)
			}
			i++
		})
		t.Logf("%s: %.1f allocs per record", key, got)
		if got > bound {
			t.Errorf("%s: %.1f allocs per replayed plan record, bound %d", key, got, bound)
		}
	}
}
