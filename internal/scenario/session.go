package scenario

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/chaos"
	"repro/internal/dag"
	"repro/internal/dagio"
	"repro/internal/dist"
	"repro/internal/monitor"
	"repro/internal/service"
	"repro/internal/sim"
	"repro/internal/tenancy"
	"repro/internal/workloads"
)

// arrival is one session the runner submits: which workflow instance, when on
// the stream clock, and — in stream mode — for which tenant against which
// deadline. A fixed fleet of N sessions is N arrivals at t = 0 with no tenant.
type arrival struct {
	index    int
	at       float64 // submission instant, simulated seconds
	seed     int64   // workflow instance, simulator seed, and chaos stream
	generate func(seed int64) *dag.Workflow
	tenant   string
	deadline float64 // seconds after at; 0 = none
}

// arrivals materializes the run's submission list: the replayed trace or the
// generated stream in stream mode, Sessions arrivals at t = 0 otherwise.
func (cfg *Config) arrivals() ([]arrival, error) {
	if cfg.Arrivals == "" && cfg.Stream == nil {
		gen := cfg.Workflow
		if gen == nil {
			if cfg.WorkflowKey == "" {
				return nil, fmt.Errorf("scenario: one of WorkflowKey or Workflow is required")
			}
			run, ok := workloads.ByKey(cfg.WorkflowKey)
			if !ok {
				return nil, fmt.Errorf("scenario: unknown workflow key %q (known: %v)", cfg.WorkflowKey, workloads.Keys())
			}
			gen = run.Generate
		}
		out := make([]arrival, cfg.Sessions)
		for i := range out {
			out[i] = arrival{index: i, seed: cfg.SeedBase + int64(i), generate: gen}
		}
		return out, nil
	}
	if cfg.chaotic() {
		return nil, fmt.Errorf("scenario: chaos injection is not supported in arrival-stream mode")
	}
	stream := cfg.Stream
	if stream == nil {
		keys := cfg.StreamKeys
		if len(keys) == 0 && cfg.WorkflowKey != "" {
			keys = []string{cfg.WorkflowKey}
		}
		var err error
		stream, err = tenancy.Generate(tenancy.StreamConfig{
			Seed:          cfg.SeedBase,
			Process:       cfg.Arrivals,
			N:             cfg.Sessions,
			Tenants:       cfg.Tenants,
			RatePerHour:   cfg.ArrivalRatePerHour,
			Keys:          keys,
			Slots:         cfg.Cloud.SlotsPerInstance,
			LagS:          float64(cfg.Cloud.LagTime),
			ChargingUnitS: float64(cfg.Cloud.ChargingUnit),
		})
		if err != nil {
			return nil, err
		}
	}
	if len(stream.Arrivals) == 0 {
		return nil, fmt.Errorf("scenario: stream replay with no arrivals")
	}
	out := make([]arrival, len(stream.Arrivals))
	for i, a := range stream.Arrivals {
		run, ok := workloads.ByKey(a.WorkflowKey)
		if !ok {
			return nil, fmt.Errorf("scenario: arrival %d: unknown workflow key %q", i, a.WorkflowKey)
		}
		out[i] = arrival{
			index: i, at: float64(a.Time), seed: a.WorkflowSeed, generate: run.Generate,
			tenant: a.Tenant, deadline: a.DeadlineS,
		}
	}
	return out, nil
}

// chaotic reports whether sessions run under an active chaos plan.
func (cfg *Config) chaotic() bool { return cfg.Chaos != nil && cfg.Chaos.Active() }

// tenantsOf returns the sorted distinct tenants the arrivals carry; empty for
// a fixed fleet.
func tenantsOf(arrs []arrival) []string {
	var out []string
	seen := map[string]bool{}
	for _, a := range arrs {
		if a.tenant != "" && !seen[a.tenant] {
			seen[a.tenant] = true
			out = append(out, a.tenant)
		}
	}
	sort.Strings(out)
	return out
}

// sessions is one run of the session runner: the shared tally every session
// folds its outcome into.
type sessions struct {
	cfg    *Config
	client *service.Client
	res    *Result

	mu        sync.Mutex // guards res, latencies, done
	latencies []float64
	done      int
}

func (s *sessions) fail(i int, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.res.Failed++
	s.note(i, err)
}

// note keeps the first few failure messages; the caller holds s.mu.
func (s *sessions) note(i int, what any) {
	if len(s.res.Errors) < 5 {
		s.res.Errors = append(s.res.Errors, fmt.Sprintf("session %d: %v", i, what))
	}
}

func (s *sessions) finish() {
	s.mu.Lock()
	s.done++
	d := s.done
	s.mu.Unlock()
	if s.cfg.Progress != nil {
		s.cfg.Progress(d, s.res.Sessions)
	}
}

// runSessions submits every arrival at its (time-compressed) instant, at most
// cfg.Concurrency running at once, and folds the outcomes into res. Arrivals
// are dispatched in index order; one that is still waiting for its instant or
// for a free slot when ctx ends is counted failed, as is every arrival after
// it, so Completed + Failed == Sessions whatever happens. The returned error
// is a run that could not start (tenant registration refused).
func runSessions(ctx context.Context, cfg *Config, client *service.Client, arrs []arrival, res *Result) error {
	tenants := tenantsOf(arrs)
	for _, name := range tenants {
		spec := service.TenantSpec{Name: name, BudgetUnits: cfg.TenantBudget, MaxActive: cfg.TenantMaxActive}
		if _, err := client.CreateTenant(ctx, spec); err != nil {
			return fmt.Errorf("scenario: registering tenant %s: %w", name, err)
		}
	}
	res.Sessions, res.Tenants = len(arrs), len(tenants)
	s := &sessions{cfg: cfg, client: client, res: res}

	start := time.Now()
	var wg sync.WaitGroup
	sem := make(chan struct{}, cfg.Concurrency)
	next := 0
dispatch:
	for ; next < len(arrs); next++ {
		arr := arrs[next]
		due := start.Add(time.Duration(arr.at / cfg.TimeCompression * float64(time.Second)))
		if wait := time.Until(due); wait > 0 {
			select {
			case <-time.After(wait):
			case <-ctx.Done():
				break dispatch
			}
		}
		select {
		case sem <- struct{}{}:
		case <-ctx.Done():
			break dispatch
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer s.finish()
			defer func() { <-sem }()
			s.runSession(ctx, arr)
		}()
	}
	for ; next < len(arrs); next++ {
		s.fail(arrs[next].index, ctx.Err())
		s.finish()
	}
	wg.Wait()

	if !cfg.chaotic() {
		// Chaos sessions plan through private clients and count their own.
		res.Retries += client.Retries()
	}
	res.Latency = service.SummarizeLatencies(s.latencies)

	// The daemon's ledger is authoritative for spend.
	for _, name := range tenants {
		info, err := client.Tenant(ctx, name)
		if err != nil {
			continue
		}
		res.TenantSpendUnits += info.SpendUnits
	}
	return nil
}

// sessionSpec is the controller spec for one arrival: the deadline policy
// races each arrival's own deadline; every other session runs the policy's
// defaults.
func (cfg *Config) sessionSpec(arr arrival) *service.ControllerSpec {
	if cfg.Policy != "deadline" || arr.deadline <= 0 {
		return nil
	}
	return &service.ControllerSpec{Deadline: arr.deadline}
}

// create opens the arrival's session, retrying tenant-throttled creates until
// the daemon admits it: the stream drops no sessions, it queues them —
// mirroring the simulator arbiter's deferred queue.
func (s *sessions) create(ctx context.Context, client *service.Client, req service.CreateSessionRequest) (*service.RemoteController, error) {
	for {
		rc, err := service.NewRemoteController(ctx, client, req)
		if err == nil {
			return rc, nil
		}
		var ae *service.APIError
		if !errors.As(err, &ae) || ae.Code != service.CodeTenantThrottled {
			return nil, err
		}
		// Back-pressure, not failure: the tenant's budget or session cap is
		// exhausted and releases as its sessions finish. Honor the Retry-After
		// floor but keep the loop tight enough for time-compressed runs.
		s.mu.Lock()
		s.res.Throttled++
		s.mu.Unlock()
		sleep := 200 * time.Millisecond
		if ae.RetryAfter > sleep {
			sleep = ae.RetryAfter
		}
		select {
		case <-time.After(sleep):
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

// runSession plans one arrival's workflow remotely — the simulator is the
// client-side substrate, the daemon its controller — then, under Verify,
// re-runs it against an identical in-process controller and requires the two
// decision streams byte-identical.
func (s *sessions) runSession(ctx context.Context, arr arrival) {
	cfg, i := s.cfg, arr.index
	wf := arr.generate(arr.seed)
	simCfg := sim.Config{Cloud: cfg.Cloud, Seed: arr.seed}
	if cfg.Noise > 0 {
		simCfg.Interference = dist.NewLognormalFromMean(1, cfg.Noise)
	}
	if cfg.Policy == "full-site" {
		simCfg.InitialInstances = cfg.Cloud.MaxInstances
	}
	// Under an active chaos plan the session plans through a private
	// fault-injecting client and runs on a private faulty site: per-session
	// fault schedules stay private to one request stream, so concurrency
	// cannot reshuffle them.
	client := s.client
	var tr *chaos.Transport
	var cloudFaults *chaos.CloudFaults
	chaotic := cfg.chaotic()
	if chaotic {
		tr = cfg.Chaos.Transport(arr.seed, nil)
		client = service.NewClient(s.client.BaseURL(), service.WithTransport(tr), service.WithRetry(service.DefaultChaosRetry()))
		cloudFaults = cfg.Chaos.CloudFaults(arr.seed)
		simCfg.Faults = cloudFaults
	}

	spec := cfg.sessionSpec(arr)
	rc, err := s.create(ctx, client, service.CreateSessionRequest{
		Workflow:   dagio.Encode(wf),
		Policy:     cfg.Policy,
		Controller: spec,
		Tenant:     arr.tenant,
		DeadlineS:  arr.deadline,
	})
	if err != nil {
		s.fail(i, fmt.Errorf("create session: %w", err))
		return
	}
	if !cfg.RetainSessions {
		defer rc.Close()
	}
	rc.SetLatencyObserver(func(d time.Duration) {
		s.mu.Lock()
		s.latencies = append(s.latencies, float64(d)/float64(time.Millisecond))
		s.mu.Unlock()
	})

	remoteTee := &decisionTee{inner: rc}
	remote, err := sim.Run(wf, remoteTee, simCfg)
	if err != nil {
		s.fail(i, fmt.Errorf("remote-planned run: %w", err))
		return
	}
	if err := rc.Err(); err != nil {
		s.fail(i, fmt.Errorf("plan transport: %w", err))
		return
	}
	if cfg.observe != nil {
		cfg.observe(arr, remoteTee.decs)
	}

	mismatch := ""
	if cfg.Verify {
		ctrl, err := service.NewPolicyController(cfg.Policy, spec)
		if err != nil {
			s.fail(i, err)
			return
		}
		localCfg := simCfg
		if chaotic {
			// The twin replays the identical cloud-fault stream: the injected
			// faults must perturb both runs the same way.
			localCfg.Faults = cfg.Chaos.CloudFaults(arr.seed)
		}
		localTee := &decisionTee{inner: ctrl}
		local, err := sim.Run(arr.generate(arr.seed), localTee, localCfg)
		if err != nil {
			s.fail(i, fmt.Errorf("in-process twin run: %w", err))
			return
		}
		if d := diffDecisionStreams(remoteTee.decs, localTee.decs); d != "" {
			mismatch = "decision streams differ: " + d
		} else if d := diffResults(remote, local); d != "" {
			mismatch = "remote/local mismatch: " + d
		}
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	res := s.res
	res.Completed++
	if mismatch != "" {
		res.Mismatched++
		s.note(i, mismatch)
	}
	res.Plans += int64(remote.Decisions)
	res.Decisions += int64(remote.Decisions)
	if chaotic {
		res.Retries += client.Retries()
		res.NetFaults.Add(tr.Counts())
		c := cloudFaults.Counts()
		res.CloudFaults.Orders += c.Orders
		res.CloudFaults.Lost += c.Lost
		res.CloudFaults.Duplicated += c.Duplicated
		res.CloudFaults.DOA += c.DOA
		res.CloudFaults.Stragglers += c.Stragglers
	}
}

// decisionTee records the JSON encoding of every decision a controller
// emits, in order — the byte-level decision stream two runs are compared on.
type decisionTee struct {
	inner sim.Controller
	decs  [][]byte
}

func (t *decisionTee) Name() string { return t.inner.Name() }

func (t *decisionTee) Plan(snap *monitor.Snapshot) sim.Decision {
	d := t.inner.Plan(snap)
	b, _ := json.Marshal(d)
	t.decs = append(t.decs, b)
	return d
}

// diffDecisionStreams returns "" when the two streams are byte-identical.
func diffDecisionStreams(remote, local [][]byte) string {
	if len(remote) != len(local) {
		return fmt.Sprintf("decision count %d != %d", len(remote), len(local))
	}
	for i := range remote {
		if !bytes.Equal(remote[i], local[i]) {
			return fmt.Sprintf("decision %d: %s != %s", i, remote[i], local[i])
		}
	}
	return ""
}

// diffResults compares the deterministic outcome of a remote-planned run
// with its in-process twin. Identical decision streams yield identical
// event sequences, so every field must match exactly.
func diffResults(remote, local *sim.Result) string {
	switch {
	case remote.Makespan != local.Makespan:
		return fmt.Sprintf("makespan %v != %v", remote.Makespan, local.Makespan)
	case remote.UnitsCharged != local.UnitsCharged:
		return fmt.Sprintf("units charged %d != %d", remote.UnitsCharged, local.UnitsCharged)
	case remote.ChargedSeconds != local.ChargedSeconds:
		return fmt.Sprintf("charged seconds %v != %v", remote.ChargedSeconds, local.ChargedSeconds)
	case remote.Decisions != local.Decisions:
		return fmt.Sprintf("decisions %d != %d", remote.Decisions, local.Decisions)
	case remote.Launches != local.Launches:
		return fmt.Sprintf("launches %d != %d", remote.Launches, local.Launches)
	case remote.Restarts != local.Restarts:
		return fmt.Sprintf("restarts %d != %d", remote.Restarts, local.Restarts)
	case remote.Failures != local.Failures:
		return fmt.Sprintf("failures %d != %d", remote.Failures, local.Failures)
	case remote.OrdersLost != local.OrdersLost:
		return fmt.Sprintf("orders lost %d != %d", remote.OrdersLost, local.OrdersLost)
	case remote.OrdersDuplicated != local.OrdersDuplicated:
		return fmt.Sprintf("orders duplicated %d != %d", remote.OrdersDuplicated, local.OrdersDuplicated)
	case remote.DeadOnArrival != local.DeadOnArrival:
		return fmt.Sprintf("dead on arrival %d != %d", remote.DeadOnArrival, local.DeadOnArrival)
	case len(remote.TaskRuns) != len(local.TaskRuns):
		return fmt.Sprintf("task runs %d != %d", len(remote.TaskRuns), len(local.TaskRuns))
	}
	return ""
}
