package tenancy

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"

	"repro/internal/simtime"
	"repro/internal/workloads"
)

// TraceProcess names streams that came from an imported trace rather than a
// generated arrival process.
const TraceProcess = "trace"

// traceHeader is the stable column layout of a stream trace CSV: one row
// per arrival, times in seconds from stream start. Floats are in strconv's
// shortest exact form, so a stream round-trips bit for bit.
var traceHeader = []string{"arrival_s", "tenant", "workflow", "seed", "deadline_s", "budget_units"}

// ReadStreamCSV imports a trace CSV (external cluster traces use the same
// layout: arrival time, size class, deadline, budget). Workflow keys must
// exist in the workloads catalog; arrivals must be sorted by time.
func ReadStreamCSV(r io.Reader) (*Stream, error) {
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
	s := &Stream{Process: TraceProcess}
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
