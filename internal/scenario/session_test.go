package scenario

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"math"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/audit"
	"repro/internal/chaos"
	"repro/internal/cloud"
	"repro/internal/cluster"
	"repro/internal/dag"
	"repro/internal/service"
	"repro/internal/tenancy"
	"repro/internal/workloads"
)

var testCloud = cloud.Config{
	SlotsPerInstance: 2,
	LagTime:          60,
	ChargingUnit:     300,
	MaxInstances:     6,
}

// requirePass fails the test unless the run passes its verdict.
func requirePass(t *testing.T, res *Result) {
	t.Helper()
	if err := res.Verdict(); err != nil {
		t.Fatalf("verdict: %v (completed %d / failed %d / mismatched %d of %d): %v",
			err, res.Completed, res.Failed, res.Mismatched, res.Sessions, res.Errors)
	}
}

// TestLoadgenHundredConcurrentSessions is the acceptance run: 100 sessions
// planned concurrently over HTTP, every one verified against an in-process
// twin. Zero failures and zero mismatches means no decision was dropped or
// routed to the wrong session; the -race run doubles as the race
// certificate.
func TestLoadgenHundredConcurrentSessions(t *testing.T) {
	srv := service.New(service.Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	res, err := Run(context.Background(), Config{
		Client:   service.NewClient(ts.URL),
		Sessions: 100,
		Policy:   "wire",
		Workflow: func(seed int64) *dag.Workflow {
			// Small but non-trivial: enough tasks for several MAPE
			// iterations and pool growth, cheap enough for 200 runs
			// under -race.
			return workloads.Linear(24+int(seed%7), 45)
		},
		Cloud:    testCloud,
		Noise:    0.08,
		SeedBase: 100,
		Verify:   true,
	})
	if err != nil {
		t.Fatal(err)
	}
	requirePass(t, res)
	if res.Plans == 0 || res.Latency.Samples == 0 {
		t.Fatalf("no plan traffic recorded: %+v", res)
	}
	if srv.Store().Len() != 0 {
		t.Errorf("%d sessions leaked after the run", srv.Store().Len())
	}

	// Every plan is accounted for on the server: nothing dropped.
	md := srv.Metrics().Dump(time.Now(), srv.Store().Len())
	if got := md.Endpoints["plan"].Count; got != res.Plans {
		t.Errorf("server saw %d plans, clients sent %d", got, res.Plans)
	}
	if md.Endpoints["plan"].Errors != 0 {
		t.Errorf("%d plan requests errored", md.Endpoints["plan"].Errors)
	}
	if md.Sessions.Created != 100 || md.Sessions.Deleted != 100 {
		t.Errorf("sessions created/deleted = %d/%d, want 100/100", md.Sessions.Created, md.Sessions.Deleted)
	}
}

// TestLoadgenConfigValidation pins the runner's configuration errors.
func TestLoadgenConfigValidation(t *testing.T) {
	srv := service.New(service.Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := service.NewClient(ts.URL)
	linear := func(int64) *dag.Workflow { return workloads.Linear(5, 60) }

	for name, cfg := range map[string]Config{
		"missing client":         {WorkflowKey: "genome-s", Cloud: testCloud},
		"missing workflow":       {Client: client, Cloud: testCloud},
		"unknown workflow key":   {Client: client, WorkflowKey: "nope", Cloud: testCloud},
		"invalid cloud":          {Client: client, WorkflowKey: "genome-s"},
		"unknown policy":         {Client: client, WorkflowKey: "genome-s", Cloud: testCloud, Policy: "apollo"},
		"fault without a fleet":  {Client: client, Workflow: linear, Cloud: testCloud, KillAfterPlans: 5},
		"rolling without router": {Shards: 1, Workflow: linear, Cloud: testCloud, RollingRestart: true},
		"two faults":             {Shards: 3, Workflow: linear, Cloud: testCloud, RollingRestart: true, ChurnEvents: 2},
	} {
		if _, err := Run(context.Background(), cfg); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestLoadgenStream is the live-plane arrival-sweep acceptance: a seeded
// Poisson stream of heterogeneous tenant-tagged workflows submitted over
// HTTP, with a per-tenant session cap forcing the admission gate to throttle
// — and every throttled create retried until admitted, so no session drops.
// Each run is twin-verified against an in-process controller.
func TestLoadgenStream(t *testing.T) {
	srv := service.New(service.Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	res, err := Run(context.Background(), Config{
		Client:             service.NewClient(ts.URL),
		Sessions:           12,
		Arrivals:           tenancy.Poisson,
		Tenants:            3,
		ArrivalRatePerHour: 600, // tight gaps: whole dispatch ≈ a few wall ms
		TenantMaxActive:    1,   // force throttled creates under concurrency
		StreamKeys:         []string{"tpch6-s", "tpch1-s", "pagerank-s"},
		TimeCompression:    36000,
		Cloud:              testCloud,
		SeedBase:           42,
		Verify:             true,
	})
	if err != nil {
		t.Fatal(err)
	}
	requirePass(t, res)
	if res.Sessions != 12 {
		t.Errorf("stream ran %d sessions, want 12", res.Sessions)
	}
	if res.Tenants != 3 {
		t.Errorf("stream used %d tenants, want 3", res.Tenants)
	}
	if res.Throttled == 0 {
		t.Error("no creates throttled under a 1-session tenant cap; admission gate inert")
	}
	if res.TenantSpendUnits <= 0 {
		t.Errorf("no tenant spend metered: %+v", res.TenantSpendUnits)
	}
	if srv.Store().Len() != 0 {
		t.Errorf("%d sessions leaked after the stream run", srv.Store().Len())
	}
	dump := srv.Metrics().Dump(time.Now(), srv.Store().Len())
	tc := srv.Tenants().Counters(dump.UptimeS)
	if tc.ArrivalsTotal != 12 {
		t.Errorf("daemon admitted %d arrivals, want 12", tc.ArrivalsTotal)
	}
	if tc.AdmissionsThrottledTotal == 0 {
		t.Error("daemon recorded no throttled admissions")
	}
}

// TestLoadgenStreamTrace replays an explicit stream (the trace-import path)
// and pins determinism: two replays of the same stream submit the same
// session population and produce identical per-arrival workflow draws.
func TestLoadgenStreamTrace(t *testing.T) {
	stream, err := tenancy.Generate(tenancy.StreamConfig{
		Seed: 7, Process: tenancy.Poisson, N: 6, Tenants: 2, RatePerHour: 600,
		Keys: []string{"tpch6-s"},
	})
	if err != nil {
		t.Fatal(err)
	}
	runOnce := func() *Result {
		srv := service.New(service.Config{})
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()
		res, err := Run(context.Background(), Config{
			Client:          service.NewClient(ts.URL),
			Stream:          stream,
			TimeCompression: 36000,
			Cloud:           testCloud,
			Verify:          true,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := runOnce(), runOnce()
	requirePass(t, a)
	if a.Sessions != 6 {
		t.Fatalf("trace replay ran %d sessions, want 6", a.Sessions)
	}
	if a.Completed != b.Completed || a.Plans != b.Plans || a.Decisions != b.Decisions {
		t.Errorf("two replays of the same trace differ: %d/%d plans vs %d/%d",
			a.Completed, a.Plans, b.Completed, b.Plans)
	}
}

// TestLoadgenStreamValidation pins stream-mode configuration errors.
func TestLoadgenStreamValidation(t *testing.T) {
	srv := service.New(service.Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := service.NewClient(ts.URL)

	if _, err := Run(context.Background(), Config{
		Client: client, Arrivals: "lunar", Cloud: testCloud,
	}); err == nil {
		t.Error("unknown arrival process accepted")
	}
	if _, err := Run(context.Background(), Config{
		Client: client, Arrivals: tenancy.Poisson,
	}); err == nil {
		t.Error("invalid cloud config accepted")
	}
	if _, err := Run(context.Background(), Config{
		Client: client, Stream: &tenancy.Stream{}, Cloud: testCloud,
	}); err == nil {
		t.Error("empty stream accepted")
	}
	if _, err := Run(context.Background(), Config{
		Client: client, Cloud: testCloud,
		Stream: &tenancy.Stream{Arrivals: []tenancy.Arrival{{Tenant: "t0", WorkflowKey: "nope"}}},
	}); err == nil {
		t.Error("stream naming an unknown workflow accepted")
	}
}

// TestLoadgenStreamCancelCountsEverySession cancels a stream run while most
// of its arrivals are still to be dispatched. Every arrival must be accounted
// for — completed or failed, none silently skipped — and the verdict must
// refuse the run.
func TestLoadgenStreamCancelCountsEverySession(t *testing.T) {
	srv := service.New(service.Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var once sync.Once
	res, err := Run(ctx, Config{
		Client:             service.NewClient(ts.URL),
		Sessions:           20,
		Arrivals:           tenancy.Poisson,
		Tenants:            2,
		ArrivalRatePerHour: 60,
		StreamKeys:         []string{"tpch6-s"},
		TimeCompression:    3600, // ~30 simulated seconds ≈ 8 wall ms apart: dispatch outlives the first session
		Cloud:              testCloud,
		SeedBase:           5,
		Verify:             true,
		Progress:           func(done, total int) { once.Do(cancel) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Sessions != 20 || res.Completed+res.Failed != res.Sessions {
		t.Fatalf("completed %d + failed %d != %d sessions: a cancelled arrival went uncounted", res.Completed, res.Failed, res.Sessions)
	}
	if res.Failed == 0 {
		t.Fatal("cancellation mid-dispatch failed no session; the run finished before the cancel")
	}
	if res.Verdict() == nil {
		t.Fatal("a cancelled run passed the verdict")
	}
}

// TestVerdictCountsEverySession pins the verdict on results no healthy run
// produces: a run that lost sessions without failing any, and faults that
// were asked for but never happened or never recovered.
func TestVerdictCountsEverySession(t *testing.T) {
	three := &PartitionSpec{Kinds: []chaos.PartitionKind{chaos.PartitionSplit, chaos.PartitionOneWay, chaos.PartitionSlow}}
	up := func(n int) cluster.RouterCounters { return cluster.RouterCounters{ShardsUp: n} }
	for name, r := range map[string]*Result{
		"incomplete":            {Sessions: 5, Completed: 4, cfg: &Config{}},
		"failed":                {Sessions: 5, Completed: 4, Failed: 1, cfg: &Config{}},
		"mismatched":            {Sessions: 5, Completed: 5, Mismatched: 1, cfg: &Config{}},
		"kill never landed":     {Sessions: 5, Completed: 5, cfg: &Config{Shards: 3, KillAfterPlans: 10}},
		"kill without failover": {Sessions: 5, Completed: 5, Killed: true, cfg: &Config{Shards: 3, KillAfterPlans: 10}},
		"kill without replay":   {Sessions: 5, Completed: 5, Killed: true, cfg: &Config{Shards: 1, KillAfterPlans: 10}},
		"rolling incomplete": {Sessions: 5, Completed: 5, Restarted: []string{"s0"}, cfg: &Config{Shards: 3, RollingRestart: true},
			Router: cluster.RouterCounters{ShardsUp: 3, DrainsTotal: 1, JoinsTotal: 1}},
		"churn unhealed":      {Sessions: 5, Completed: 5, Router: up(2), cfg: &Config{Shards: 3, ChurnEvents: 4}},
		"partition unaudited": {Sessions: 5, Completed: 5, Router: up(3), PartitionsApplied: 3, cfg: &Config{Shards: 3, Partition: three}},
		"partition short":     {Sessions: 5, Completed: 5, Router: up(3), PartitionsApplied: 2, cfg: &Config{Shards: 3, Partition: three}},
	} {
		if r.Verdict() == nil {
			t.Errorf("%s: passed", name)
		}
	}
	for name, r := range map[string]*Result{
		"plain": {Sessions: 5, Completed: 5, cfg: &Config{}},
		"cluster kill": {Sessions: 5, Completed: 5, Killed: true, cfg: &Config{Shards: 3, KillAfterPlans: 10},
			Router: cluster.RouterCounters{ShardsUp: 2, FailoversTotal: 1}},
		"daemon restart": {Sessions: 5, Completed: 5, Killed: true, JournalReplays: 2, cfg: &Config{Shards: 1, KillAfterPlans: 10}},
	} {
		if err := r.Verdict(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// digest is one session's identity and decision stream, as the parity fixture
// records it.
type digest struct {
	Index     int    `json:"index"`
	Seed      int64  `json:"seed"`
	Decisions int    `json:"decisions"`
	SHA256    string `json:"sha256"`
}

// digests returns an observe hook collecting every session's digest into out,
// indexed by arrival.
func digests(out []digest) func(arrival, [][]byte) {
	var mu sync.Mutex
	return func(arr arrival, decs [][]byte) {
		h := sha256.New()
		for _, d := range decs {
			h.Write(d)
			h.Write([]byte{'\n'})
		}
		mu.Lock()
		defer mu.Unlock()
		out[arr.index] = digest{Index: arr.index, Seed: arr.seed, Decisions: len(decs), SHA256: hex.EncodeToString(h.Sum(nil))}
	}
}

// TestSeedParity pins the runner to what service.Loadgen and
// service.ChaosCertify did before they moved here: testdata/parity.json holds,
// recorded at the last commit that had them, every session's seed, decision
// count and decision-stream hash for one fixed-fleet, one arrival-stream and
// one chaos configuration, plus the chaos run's injected-fault totals. Same
// seeds, same sessions, same decisions — which is what keeps a CI seed meaning
// what it meant.
func TestSeedParity(t *testing.T) {
	var want map[string]struct {
		Sessions    []digest           `json:"sessions"`
		NetFaults   *chaos.Counts      `json:"net_faults"`
		CloudFaults *chaos.CloudCounts `json:"cloud_faults"`
	}
	b, err := os.ReadFile("testdata/parity.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatal(err)
	}
	for mode, cfg := range map[string]Config{
		"fixed": {
			Sessions: 6, Concurrency: 3,
			Workflow: func(seed int64) *dag.Workflow { return workloads.Linear(24+int(seed%7), 45) },
			Cloud:    testCloud, Noise: 0.08, SeedBase: 100, Verify: true,
		},
		"stream": {
			Sessions: 8, Arrivals: tenancy.Poisson, Tenants: 2, ArrivalRatePerHour: 600,
			StreamKeys: []string{"tpch6-s", "tpch1-s"}, TimeCompression: 36000,
			Cloud: testCloud, SeedBase: 42, Verify: true,
		},
		"chaos": {
			Shards: 1, Sessions: 6, Concurrency: 2,
			Workflow: func(seed int64) *dag.Workflow { return workloads.Linear(30+int(seed%3), 300) },
			Cloud:    testCloud, Noise: 0.08, SeedBase: 900, Verify: true,
			Chaos: &chaos.Plan{Seed: 21, DropRequest: 0.08, Err5xx: 0.08, DropResponse: 0.08,
				LostOrder: 0.08, DuplicateOrder: 0.08, DeadOnArrival: 0.08},
		},
	} {
		t.Run(mode, func(t *testing.T) {
			if cfg.Shards == 0 {
				ts := httptest.NewServer(service.New(service.Config{}).Handler())
				defer ts.Close()
				cfg.Client = service.NewClient(ts.URL)
			}
			got := make([]digest, len(want[mode].Sessions))
			cfg.observe = digests(got)
			res, err := Run(context.Background(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			requirePass(t, res)
			if !reflect.DeepEqual(got, want[mode].Sessions) {
				t.Errorf("sessions diverged from the recorded parent run:\n got %+v\nwant %+v", got, want[mode].Sessions)
			}
			if w := want[mode].NetFaults; w != nil && res.NetFaults != *w {
				t.Errorf("net faults %+v, recorded %+v", res.NetFaults, *w)
			}
			if w := want[mode].CloudFaults; w != nil && res.CloudFaults != *w {
				t.Errorf("cloud faults %+v, recorded %+v", res.CloudFaults, *w)
			}
		})
	}
}

// TestFixedEqualsStreamAtT0 is the claim the runner is built on: a fixed fleet
// is the arrival stream whose arrivals all land at t = 0. The same sessions
// submitted both ways must produce identical per-session decision streams.
func TestFixedEqualsStreamAtT0(t *testing.T) {
	const n, seedBase = 5, 300
	stream := &tenancy.Stream{Process: "trace"}
	for i := 0; i < n; i++ {
		stream.Arrivals = append(stream.Arrivals, tenancy.Arrival{
			Index: i, Tenant: "t0", WorkflowKey: "tpch6-s", WorkflowSeed: seedBase + int64(i),
		})
	}
	run := func(cfg Config) []digest {
		ts := httptest.NewServer(service.New(service.Config{}).Handler())
		defer ts.Close()
		cfg.Client = service.NewClient(ts.URL)
		cfg.Cloud, cfg.Noise, cfg.Verify = testCloud, 0.08, true
		out := make([]digest, n)
		cfg.observe = digests(out)
		res, err := Run(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		requirePass(t, res)
		return out
	}
	fixed := run(Config{Sessions: n, WorkflowKey: "tpch6-s", SeedBase: seedBase})
	streamed := run(Config{Stream: stream})
	if !reflect.DeepEqual(fixed, streamed) {
		t.Errorf("fixed fleet and stream-at-t0 diverged:\n fixed  %+v\n stream %+v", fixed, streamed)
	}
}

// TestLoadgenStreamAuditBillsDeltaJournals is the billing side of the delta
// plan protocol on the multi-tenant stream: after the first plan of a session
// the journal holds only the task records that changed, yet the auditor's
// recomputation of every tenant's spend from those journals must equal the
// daemon's own ledger, which meters the materialised snapshots — a delta
// carries clock, billing parameters and instances in full for exactly this.
func TestLoadgenStreamAuditBillsDeltaJournals(t *testing.T) {
	jdir := t.TempDir()
	srv := service.New(service.Config{JournalDir: jdir})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	client := service.NewClient(ts.URL)
	res, err := Run(context.Background(), Config{
		Client:             client,
		Sessions:           12,
		Arrivals:           tenancy.Poisson,
		Tenants:            3,
		ArrivalRatePerHour: 600,
		StreamKeys:         []string{"tpch1-l", "pagerank-s", "genome-s"},
		TimeCompression:    36000,
		Cloud:              testCloud,
		SeedBase:           42,
		Verify:             true,
		RetainSessions:     true, // the WALs are the evidence
	})
	if err != nil {
		t.Fatal(err)
	}
	requirePass(t, res)

	rep, err := audit.Run(audit.Config{Dirs: []string{jdir}})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() || rep.Sessions != 12 || int64(rep.Plans) != res.Plans {
		t.Fatalf("audit: %d sessions, %d plans (the run made %d), violations %+v", rep.Sessions, rep.Plans, res.Plans, rep.Violations)
	}
	wals, err := filepath.Glob(filepath.Join(jdir, "*.wal"))
	if err != nil {
		t.Fatal(err)
	}
	deltas := 0
	for _, path := range wals {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		deltas += bytes.Count(data, []byte(`"max_instances":6,"delta":true,"tasks":[`))
	}
	if want := int(res.Plans) - len(wals); deltas != want {
		t.Fatalf("journals hold %d delta plan records, want every plan but each session's first: %d", deltas, want)
	}
	tenants, err := client.Tenants(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(tenants) != 3 || len(rep.TenantSpend) != 3 {
		t.Fatalf("ledger has %d tenants, audit %d, want 3", len(tenants), len(rep.TenantSpend))
	}
	for _, info := range tenants {
		if got := rep.TenantSpend[info.Name]; got <= 0 || math.Abs(got-info.SpendUnits) > 1e-9 {
			t.Errorf("tenant %s: audit recomputes %v units from the journals, the daemon metered %v", info.Name, got, info.SpendUnits)
		}
	}
}
