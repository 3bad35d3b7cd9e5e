package exec

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cloud"
	"repro/internal/dagio"
	"repro/internal/sim"
	"repro/internal/simtime"
	"repro/internal/wal"
	"repro/internal/wal/waltest"
	"repro/internal/workloads"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden.jsonl from the current write path")

// goldenJournal is the checked-in live-run journal: every record kind recovery
// and the auditor's lease check read, with every optional field they read set
// somewhere. TestGoldenJournal holds the write path to it byte for byte;
// internal/audit reads the same file (TestGoldenLiveJournal there).
const goldenJournal = "testdata/golden.jsonl"

// goldenRecords tells a short, consistent story: task 0 completes; task 1
// straggles, a speculative duplicate wins and the original is superseded;
// task 2 is reclaimed once, is leased again and has reported its input
// transfer when the log ends.
func goldenRecords(t *testing.T) []Record {
	t.Helper()
	spec, err := json.Marshal(&CreateRunRequest{
		Workflow:          dagio.Encode(flatWorkflow(3, 10)),
		Policy:            "wire",
		SlotsPerInstance:  2,
		LagTimeS:          2,
		ChargingUnitS:     30,
		MaxInstances:      4,
		Timescale:         200,
		MaxTaskAttempts:   3,
		SpeculationFactor: 1.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	decision, err := json.Marshal(sim.Decision{Launch: 1, Releases: []sim.ReleaseOrder{{Instance: 0, AtBoundary: true}}})
	if err != nil {
		t.Fatal(err)
	}
	snapshot := json.RawMessage(`{"now_s":60,"interval_s":60,"charging_unit_s":30,"instances":[{"id":0}]}`)
	recs := []Record{
		{Kind: RecRunCreated, Detail: "flat", Spec: spec},
		{Kind: RecRunStarted},
		{Kind: RecAgentRegistered, Agent: "a1", Slots: 2, Detail: "worker-0"},
		{Kind: RecAgentRegistered, Agent: "a2", Slots: 2, Detail: "worker-1"},
		{Kind: RecInstanceLaunch, Instance: intPtr(0)},
		{Kind: RecLeaseGranted, Agent: "a1", Lease: int64Ptr(1), Task: intPtr(0)},
		{Kind: RecLeaseGranted, Agent: "a1", Lease: int64Ptr(2), Task: intPtr(1)},
		{Kind: RecLeaseCompleted, Agent: "a1", Lease: int64Ptr(1), ExecS: 12.5, TransferS: 1.25},
		{Kind: RecLeaseSpeculated, Agent: "a2", Lease: int64Ptr(3), Task: intPtr(1), Detail: "straggler"},
		{Kind: RecLeaseCompleted, Agent: "a2", Lease: int64Ptr(3), ExecS: 9, TransferS: 0.5},
		{Kind: RecLeaseSuperseded, Agent: "a1", Lease: int64Ptr(2)},
		{Kind: RecLeaseGranted, Agent: "a2", Lease: int64Ptr(4), Task: intPtr(2)},
		{Kind: RecLeaseReclaimed, Agent: "a2", Lease: int64Ptr(4), Attempt: 1, Detail: "lease expired"},
		{Kind: RecDecision, Snapshot: snapshot, Decision: decision},
		{Kind: RecLeaseGranted, Agent: "a1", Lease: int64Ptr(5), Task: intPtr(2)},
		{Kind: RecLeaseTransfer, Agent: "a1", Lease: int64Ptr(5), TransferS: 0.75},
	}
	for i := range recs {
		recs[i].Seq = int64(i + 1)
		recs[i].WallMs = int64(40 * i)
		recs[i].NowS = simtime.Time(8 * i)
	}
	return recs
}

// TestGoldenJournal holds FileSink's bytes to the checked-in journal, reads it
// back record for record, and folds it to the state its story ends in.
func TestGoldenJournal(t *testing.T) {
	recs := goldenRecords(t)
	path := filepath.Join(t.TempDir(), "live-golden.jsonl")
	sink, err := NewFileSink(path, wal.Policy{Mode: wal.SyncOff})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if err := sink.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if *updateGolden {
		if err := os.WriteFile(goldenJournal, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(goldenJournal)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("the write path no longer produces %s (rerun with -update only if the format was meant to change)\ngot:\n%s\nwant:\n%s", goldenJournal, got, want)
	}

	read, end, err := ReadJournal(goldenJournal)
	if err != nil || end != int64(len(want)) {
		t.Fatalf("reading the golden journal: end %d of %d, err %v", end, len(want), err)
	}
	if !reflect.DeepEqual(read, recs) {
		t.Fatalf("the golden journal reads back as\n%+v\nwant\n%+v", read, recs)
	}
	if !recoverable(read) {
		t.Error("the golden journal does not describe a run recovery would pick up")
	}
	st, err := ReplayAssignments(read)
	if err != nil {
		t.Fatal(err)
	}
	wantState := NewAssignmentState()
	wantState.Completed[0], wantState.Completed[1] = true, true
	wantState.Leased[2] = "a1"
	wantState.Reclaims[2] = 1
	wantState.LiveAgents["a1"], wantState.LiveAgents["a2"] = true, true
	if !st.Equal(wantState) {
		t.Fatalf("the golden journal folds to %+v, want %+v", st, wantState)
	}
}

// journalingDispatcher starts a one-instance run of n endless tasks whose
// journal goes through a FileSink, and returns what the tests poke at.
func journalingDispatcher(t *testing.T, n int) (d *Dispatcher, sink *FileSink, path string, logs *logLines) {
	t.Helper()
	path = filepath.Join(t.TempDir(), "live-x.jsonl")
	sink, err := NewFileSink(path, wal.Policy{Mode: wal.SyncOff})
	if err != nil {
		t.Fatal(err)
	}
	logs = &logLines{}
	d, err = NewDispatcher(Config{
		Workflow:   flatWorkflow(n, 10000),
		Controller: holdController{},
		Cloud:      cloud.Config{SlotsPerInstance: n, LagTime: 0.001, ChargingUnit: 3600, MaxInstances: 1},
		Timescale:  1,
		Journal:    sink,
		Logf:       logs.logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		d.Abort("test cleanup")
		sink.Close()
	})
	return d, sink, path, logs
}

type logLines struct {
	mu    sync.Mutex
	lines []string
}

func (l *logLines) logf(format string, args ...any) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.lines = append(l.lines, fmt.Sprintf(format, args...))
}

func (l *logLines) count(sub string) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := 0
	for _, line := range l.lines {
		if strings.Contains(line, sub) {
			n++
		}
	}
	return n
}

// leaseAll registers an agent, starts the run and polls until every task is
// leased: a burst of journal records with nothing else going on.
func leaseAll(t *testing.T, d *Dispatcher, n int) {
	t.Helper()
	reg, err := d.Register("w", n)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Start(); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for got := 0; got < n; {
		resp, err := d.Poll(ctx, reg.AgentID, 100*time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		got += len(resp.Leases)
	}
}

// TestLiveJournalFailedWrite: a failed write on a live-run journal is never
// silent. One failure is repaired by the next append — the file ends up with
// every record, in order — and is counted and logged once. When the file
// cannot be repaired the journal is detached, logged, and the run carries on
// in memory over a file that is still a clean prefix.
func TestLiveJournalFailedWrite(t *testing.T) {
	cases := []struct {
		name     string
		fault    waltest.Faulty
		detached bool
	}{
		{"one failed write", waltest.Faulty{FailWrites: 1}, false},
		{"one short write", waltest.Faulty{FailWrites: 1, Short: true}, false},
		{"two failed writes in a row", waltest.Faulty{FailWrites: 2}, true},
		{"truncate fails", waltest.Faulty{FailWrites: 1, Short: true, FailTruncate: true}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			const tasks = 4
			d, sink, path, logs := journalingDispatcher(t, tasks)
			sink.mu.Lock()
			sink.log.Wrap(tc.fault.Under())
			sink.mu.Unlock()
			leaseAll(t, d, tasks)

			c := d.Counters()
			if c.JournalErrors == 0 || c.LeasesGranted != tasks {
				t.Fatalf("counters %+v: want journal errors counted and all %d leases granted", c, tasks)
			}
			if n := logs.count("journal append failed"); n != 1 {
				t.Errorf("the failure was logged %d times, want once", n)
			}
			d.mu.Lock()
			detached := d.cfg.Journal == nil
			d.mu.Unlock()
			if detached != tc.detached || (logs.count("journal detached") == 1) != tc.detached {
				t.Fatalf("journal detached = %v (logged %d times), want %v", detached, logs.count("journal detached"), tc.detached)
			}

			recs, _, err := ReadJournal(path)
			if err != nil {
				t.Fatal(err)
			}
			for i, r := range recs {
				if r.Seq != int64(i+1) {
					t.Fatalf("record %d has seq %d: the file is not a gapless prefix", i, r.Seq)
				}
			}
			if !tc.detached {
				if c.JournalErrors != 1 {
					t.Errorf("%d journal errors for one failed write", c.JournalErrors)
				}
				st, err := ReplayAssignments(recs)
				if err != nil || !st.Equal(d.Assignments()) {
					t.Fatalf("the repaired journal folds to %+v (err %v), the dispatcher holds %+v", st, err, d.Assignments())
				}
			}
		})
	}
}

// TestRecoverReadsJournalOnce: recovery resumes a journal exactly where its
// one read of it ended. A record that lands in the file after that read —
// here slipped in from the controller factory, which recovery calls between
// reading the journal and reopening it — is cut, not adopted: the recovered
// dispatcher never saw it, and a second validating read (which is what would
// keep it) is what this test rules out.
func TestRecoverReadsJournalOnce(t *testing.T) {
	dir1, dir2 := t.TempDir(), t.TempDir()
	reg1 := newTestRegistry(t, RegistryConfig{JournalDir: dir1})
	ts := httptest.NewServer(liveHandler(reg1))
	defer ts.Close()
	client := NewLiveClient(ts.URL)
	ctx := context.Background()
	info, err := client.CreateRun(ctx, &CreateRunRequest{
		Workflow: dagio.Encode(flatWorkflow(2, 10)), SlotsPerInstance: 2, LagTimeS: 2, ChargingUnitS: 30,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer deleteRun(ctx, client, info.ID)
	if _, err := client.Register(ctx, info.ID, "w", 2); err != nil {
		t.Fatal(err)
	}
	// The crash image: a run created and joined by one agent, never started.
	image, err := os.ReadFile(filepath.Join(dir1, info.ID+".jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir2, info.ID+".jsonl")
	if err := os.WriteFile(path, image, 0o644); err != nil {
		t.Fatal(err)
	}
	late, err := json.Marshal(Record{Seq: 99, Kind: RecAgentFailed, Agent: "a1"})
	if err != nil {
		t.Fatal(err)
	}

	calls := 0
	reg2 := newTestRegistry(t, RegistryConfig{JournalDir: dir2, Factory: func(policy string, spec json.RawMessage) (sim.Controller, error) {
		calls++
		f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		if _, err := f.Write(append(late, '\n')); err != nil {
			return nil, err
		}
		return coreFactory(policy, spec)
	}})
	if n, err := reg2.Recover(); err != nil || n != 1 || calls != 1 {
		t.Fatalf("recovered %d run(s) with %d factory call(s), err %v", n, calls, err)
	}
	reg2.mu.Lock()
	e := reg2.runs[info.ID]
	reg2.mu.Unlock()
	defer e.sink.Close()
	defer e.d.Abort("test cleanup")

	// The journal is back to what recovery decoded, and the run appends there.
	if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, image) {
		t.Fatalf("after recovery the journal holds\n%s\nwant what recovery read:\n%s\n(err %v)", got, image, err)
	}
	if _, err := e.d.Register("w2", 2); err != nil {
		t.Fatal(err)
	}
	after, _, err := ReadJournal(path)
	if err != nil || len(after) != 3 || after[2].Kind != RecAgentRegistered || after[2].Seq != 3 {
		t.Fatalf("journal after the recovered run's next record: %+v, err %v", after, err)
	}
}

// TestRecoverHoldsKeyedRunToDigest: a run created by workflow_key journals the
// generated workflow's digest on its run-created record, and recovery
// regenerates the workflow and holds it to that digest. The intact journal
// recovers; one whose digest no longer matches — what a generator changed
// since the journal was written looks like — is refused, and the refusal
// names the run, the key and the seed; a run-created record without a digest
// recovers as before.
func TestRecoverHoldsKeyedRunToDigest(t *testing.T) {
	dir := t.TempDir()
	reg := newTestRegistry(t, RegistryConfig{JournalDir: dir})
	ts := httptest.NewServer(liveHandler(reg))
	defer ts.Close()
	client := NewLiveClient(ts.URL)
	ctx := context.Background()
	info, err := client.CreateRun(ctx, &CreateRunRequest{
		WorkflowKey: "tpch6-s", SlotsPerInstance: 2, LagTimeS: 2, ChargingUnitS: 30,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer deleteRun(ctx, client, info.ID)
	image, err := os.ReadFile(filepath.Join(dir, info.ID+".jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	recs, _, err := ReadJournal(filepath.Join(dir, info.ID+".jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	wf, _, err := workloads.Resolve(nil, "tpch6-s", 1)
	if err != nil {
		t.Fatal(err)
	}
	digest := workloads.Digest(wf)
	if len(recs) == 0 || recs[0].Kind != RecRunCreated || recs[0].WorkflowDigest != digest {
		t.Fatalf("run-created record %+v, want workflow digest %s", recs[0], digest)
	}

	recoverImage := func(image []byte) (int, string) {
		t.Helper()
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, info.ID+".jsonl"), image, 0o644); err != nil {
			t.Fatal(err)
		}
		logs := &logLines{}
		reg := newTestRegistry(t, RegistryConfig{JournalDir: dir, Logf: logs.logf})
		n, err := reg.Recover()
		if err != nil {
			t.Fatal(err)
		}
		reg.mu.Lock()
		e := reg.runs[info.ID]
		reg.mu.Unlock()
		if e != nil {
			e.d.Abort("test cleanup")
			e.sink.Close()
		}
		logs.mu.Lock()
		defer logs.mu.Unlock()
		return n, strings.Join(logs.lines, "\n")
	}
	if n, logged := recoverImage(image); n != 1 {
		t.Fatalf("the intact keyed journal recovered %d run(s):\n%s", n, logged)
	}
	doctored := bytes.Replace(image, []byte(digest), []byte(strings.Repeat("0", len(digest))), 1)
	n, logged := recoverImage(doctored)
	if n != 0 {
		t.Fatalf("a journal whose workflow digest does not match recovered %d run(s)", n)
	}
	if !strings.Contains(logged, info.ID) || !strings.Contains(logged, `"tpch6-s" seed 1`) {
		t.Errorf("the refusal does not name run %s, key tpch6-s and seed 1:\n%s", info.ID, logged)
	}
	undigested := bytes.Replace(image, []byte(`,"workflow_digest":"`+digest+`"`), nil, 1)
	if bytes.Equal(undigested, image) {
		t.Fatal("the run-created record's digest was not found to strip")
	}
	if n, logged := recoverImage(undigested); n != 1 {
		t.Fatalf("a run-created record without a digest recovered %d run(s):\n%s", n, logged)
	}
}
