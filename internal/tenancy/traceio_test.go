package tenancy

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/internal/simtime"
	"repro/internal/workloads"
)

// A write/read round trip must reproduce the stream's arrivals bit for bit
// (floats use strconv's shortest exact form).
func TestTraceRoundTrip(t *testing.T) {
	for _, process := range processes {
		s, err := Generate(testStreamConfig(process, 24))
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := writeStreamCSV(&buf, s); err != nil {
			t.Fatal(err)
		}
		back, err := readStreamCSV(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if back.Process != traceProcess {
			t.Errorf("imported process %q, want %q", back.Process, traceProcess)
		}
		if !reflect.DeepEqual(s.Arrivals, back.Arrivals) {
			t.Errorf("%s: arrivals changed across the CSV round trip", process)
		}
	}
}

// The checked-in fixture pins the acceptance stream: generation must still
// reproduce it exactly (the determinism certificate for arrival draws), and
// replaying it through the simulator plane must be reproducible.
func TestTraceFixtureReplay(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "stream_poisson_s42.csv"))
	if err != nil {
		t.Fatal(err)
	}
	fixture, err := readStreamCSV(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	gen, err := Generate(testStreamConfig(Poisson, 24))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gen.Arrivals, fixture.Arrivals) {
		t.Fatal("generated stream no longer matches the checked-in fixture; " +
			"if the generator changed intentionally, regenerate testdata with writeStreamCSV")
	}

	a := runAcceptance(t, fixture, Urgency, 70)
	b := runAcceptance(t, fixture, Urgency, 70)
	if !reflect.DeepEqual(normalized(a), normalized(b)) {
		t.Error("fixture replay is not reproducible")
	}
	if len(a.Outcomes) != len(fixture.Arrivals) {
		t.Errorf("%d outcomes for %d fixture arrivals", len(a.Outcomes), len(fixture.Arrivals))
	}
}

func TestReadStreamCSVRejects(t *testing.T) {
	cases := map[string]string{
		"bad header":       "when,who,what,seed,deadline_s,budget_units\n",
		"empty":            "arrival_s,tenant,workflow,seed,deadline_s,budget_units\n",
		"unknown workflow": "arrival_s,tenant,workflow,seed,deadline_s,budget_units\n1,t0,nope,7,100,1\n",
		"empty tenant":     "arrival_s,tenant,workflow,seed,deadline_s,budget_units\n1,,tpch6-s,7,100,1\n",
		"unsorted": "arrival_s,tenant,workflow,seed,deadline_s,budget_units\n" +
			"5,t0,tpch6-s,7,100,1\n1,t0,tpch6-s,8,100,1\n",
		"bad float": "arrival_s,tenant,workflow,seed,deadline_s,budget_units\nxyz,t0,tpch6-s,7,100,1\n",
	}
	for name, csvText := range cases {
		if _, err := readStreamCSV(strings.NewReader(csvText)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// writeStreamCSV exports a stream as a trace CSV, floats in strconv's
// shortest exact form, as the fixture in testdata was written.
func writeStreamCSV(w io.Writer, s *Stream) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(traceHeader); err != nil {
		return err
	}
	for _, a := range s.Arrivals {
		rec := []string{
			strconv.FormatFloat(float64(a.Time), 'f', -1, 64),
			a.Tenant,
			a.WorkflowKey,
			strconv.FormatInt(a.WorkflowSeed, 10),
			strconv.FormatFloat(a.DeadlineS, 'f', -1, 64),
			strconv.Itoa(a.BudgetUnits),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// traceProcess names streams that came from an imported trace rather than a
// generated arrival process.
const traceProcess = "trace"

// traceHeader is the stable column layout of a stream trace CSV: one row
// per arrival, times in seconds from stream start. Floats are in strconv's
// shortest exact form, so a stream round-trips bit for bit.
var traceHeader = []string{"arrival_s", "tenant", "workflow", "seed", "deadline_s", "budget_units"}

// readStreamCSV imports a trace CSV, as the fixture in testdata is read.
// Workflow keys must exist in the workloads catalog; arrivals must be sorted
// by time.
func readStreamCSV(r io.Reader) (*Stream, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = len(traceHeader)
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("tenancy: trace header: %w", err)
	}
	for i, want := range traceHeader {
		if header[i] != want {
			return nil, fmt.Errorf("tenancy: trace column %d is %q, want %q", i, header[i], want)
		}
	}
	s := &Stream{Process: traceProcess}
	for line := 2; ; line++ {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("tenancy: trace line %d: %w", line, err)
		}
		at, err := strconv.ParseFloat(rec[0], 64)
		if err != nil {
			return nil, fmt.Errorf("tenancy: trace line %d: arrival_s: %w", line, err)
		}
		if rec[1] == "" {
			return nil, fmt.Errorf("tenancy: trace line %d: empty tenant", line)
		}
		if _, ok := workloads.ByKey(rec[2]); !ok {
			return nil, fmt.Errorf("tenancy: trace line %d: unknown workflow %q", line, rec[2])
		}
		seed, err := strconv.ParseInt(rec[3], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("tenancy: trace line %d: seed: %w", line, err)
		}
		deadline, err := strconv.ParseFloat(rec[4], 64)
		if err != nil {
			return nil, fmt.Errorf("tenancy: trace line %d: deadline_s: %w", line, err)
		}
		budget, err := strconv.Atoi(rec[5])
		if err != nil {
			return nil, fmt.Errorf("tenancy: trace line %d: budget_units: %w", line, err)
		}
		if n := len(s.Arrivals); n > 0 && simtime.Time(at) < s.Arrivals[n-1].Time {
			return nil, fmt.Errorf("tenancy: trace line %d: arrivals not sorted by time", line)
		}
		s.Arrivals = append(s.Arrivals, Arrival{
			Index:        len(s.Arrivals),
			Tenant:       rec[1],
			Time:         simtime.Time(at),
			WorkflowKey:  rec[2],
			WorkflowSeed: seed,
			DeadlineS:    deadline,
			BudgetUnits:  budget,
		})
	}
	if len(s.Arrivals) == 0 {
		return nil, fmt.Errorf("tenancy: trace has no arrivals")
	}
	return s, nil
}
