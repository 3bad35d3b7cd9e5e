package main

import (
	"context"
	"encoding/json"
	"net/http"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	live "repro/internal/exec"
	"repro/internal/service"
)

// liveSlots is each agent's slot count and each instance's.
const liveSlots = 4

// liveRun is one live run on a wire-serve process, worked by wire-agent
// processes: Epigenomics-S under WIRE at the paper's site parameters (§IV-B),
// at 100× timescale.
type liveRun struct {
	t        *testing.T
	ctx      context.Context
	agentBin string
	url      string
	client   *live.LiveClient
	id       string
	agents   []*daemon
	procs    []*daemon // every process the run started, daemons and agents
}

// newLiveRun creates the run on the daemon d. If the test fails, its cleanup
// prints the output of every process the run started.
func newLiveRun(ctx context.Context, t *testing.T, agentBin string, d *daemon) *liveRun {
	r := &liveRun{t: t, ctx: ctx, agentBin: agentBin, url: d.url, client: live.NewLiveClient(d.url), procs: []*daemon{d}}
	t.Cleanup(r.logs)
	info, err := r.client.CreateRun(ctx, &live.CreateRunRequest{
		WorkflowKey:      "genome-s",
		Policy:           "wire",
		SlotsPerInstance: liveSlots,
		LagTimeS:         180,
		ChargingUnitS:    900,
		MaxInstances:     12,
		Timescale:        100,
	})
	if err != nil {
		t.Fatalf("create live run: %v", err)
	}
	r.id = info.ID
	return r
}

// logs prints the output of every process the run started if the test failed.
func (r *liveRun) logs() {
	if r.t.Failed() {
		for _, p := range r.procs {
			r.t.Logf("%s log:\n%s", p.name, p.log())
		}
	}
}

// agent starts a wire-agent process named name on the run.
func (r *liveRun) agent(name string) *daemon {
	a, err := start(r.t, r.agentBin, "-server", r.url, "-run", r.id, "-name", name, "-slots", strconv.Itoa(liveSlots))
	if err != nil {
		r.t.Fatal(err)
	}
	r.agents = append(r.agents, a)
	r.procs = append(r.procs, a)
	return a
}

// waitFor polls the run's status until ok holds, failing the test at the
// deadline.
func (r *liveRun) waitFor(what string, ok func(live.RunStatusResponse) bool) live.RunStatusResponse {
	r.t.Helper()
	for {
		st, err := r.client.RunStatus(r.ctx, r.id)
		if err == nil && ok(st) {
			return st
		}
		select {
		case <-r.ctx.Done():
			r.t.Fatalf("%s: not by the deadline (last status: %s, %d/%d tasks; error %v)", what, st.State, st.TasksCompleted, st.Tasks, err)
		case <-time.After(50 * time.Millisecond):
		}
	}
}

// finish waits for the run to end and for every agent but the killed one to
// exit with status 0. It then requires what every live run must show: a
// result, zero lost leases in the result and in /metrics, the lease identity
// granted == completed + reclaimed + superseded, and a decision stream that
// replays byte-identical through a fresh controller twin.
func (r *liveRun) finish(killed *daemon) live.Counters {
	r.t.Helper()
	st := r.waitFor("run over", func(st live.RunStatusResponse) bool {
		return st.State == live.Done || st.State == live.Failed
	})
	if st.Result == nil {
		r.t.Fatalf("run %s: %s", st.State, st.Error)
	}
	for _, p := range r.agents {
		if p == killed {
			continue
		}
		select {
		case <-p.exited:
			if p.err != nil {
				r.t.Errorf("%s: %v", p.name, p.err)
			}
		case <-r.ctx.Done():
			r.t.Errorf("%s still running after the run ended", p.name)
		}
	}
	c := st.Result.Counters
	if c.LeasesLost != 0 {
		r.t.Errorf("%d leases lost", c.LeasesLost)
	}
	if got := c.LeasesGranted - c.LeasesCompleted - c.LeasesReclaimed - c.LeasesSuperseded; got != 0 {
		r.t.Errorf("lease identity violated by %d: %+v", got, c)
	}
	if m := r.metrics(); m.Live == nil || m.Live.Counters.LeasesLost != 0 {
		r.t.Errorf("/metrics live block %+v: want zero lost leases", m.Live)
	}
	records, err := r.client.PlanStream(r.ctx, r.id)
	if err != nil {
		r.t.Fatal(err)
	}
	twin, err := service.NewPolicyController("wire", nil)
	if err != nil {
		r.t.Fatal(err)
	}
	if err := live.TwinVerify(records, twin); err != nil {
		r.t.Errorf("parity: %v", err)
	}
	r.t.Logf("%d tasks in %v wall, %d decisions; leases granted %d, completed %d, reclaimed %d, superseded %d",
		st.Tasks, time.Duration(st.Result.WallElapsedMs)*time.Millisecond, len(records),
		c.LeasesGranted, c.LeasesCompleted, c.LeasesReclaimed, c.LeasesSuperseded)
	return c
}

// metrics reads the daemon's /metrics.
func (r *liveRun) metrics() service.MetricsDump {
	r.t.Helper()
	resp, err := http.Get(r.url + "/metrics")
	if err != nil {
		r.t.Fatal(err)
	}
	defer resp.Body.Close()
	var m service.MetricsDump
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		r.t.Fatalf("/metrics: %v", err)
	}
	return m
}

// testLiveAgentKill SIGKILLs an agent process while it holds leases: its
// heartbeat lapses, the dispatcher declares it failed and reclaims every
// leased task exactly once, and the run must still complete.
func testLiveAgentKill(t *testing.T, bin, agentBin string) {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	d := startDaemon(t, bin, "serve", "-addr", "127.0.0.1:0")
	r := newLiveRun(ctx, t, agentBin, d)

	// The victim registers first, so it binds the bootstrap instance and is
	// sure to hold leases: agents race to register, and a victim that lost
	// the race would park with no lease.
	victim := r.agent("victim")
	r.waitFor("victim registered", func(st live.RunStatusResponse) bool {
		for _, a := range st.Agents {
			if a.Name == "victim" {
				return true
			}
		}
		return false
	})
	r.agent("worker-1")
	r.agent("worker-2")
	if _, err := r.client.StartRun(ctx, r.id); err != nil {
		t.Fatal(err)
	}
	r.waitFor("victim leased a task", func(st live.RunStatusResponse) bool {
		for _, a := range st.Agents {
			if a.Name == "victim" && a.ActiveLeases > 0 {
				return true
			}
		}
		return false
	})
	if err := victim.cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	if c := r.finish(victim); c.AgentsFailed == 0 || c.LeasesReclaimed == 0 {
		t.Errorf("agent kill not observed: %d agent(s) failed, %d lease(s) reclaimed", c.AgentsFailed, c.LeasesReclaimed)
	}
	if err := d.stop(); err != nil {
		t.Error(err)
	}
}

// testLiveServerKill SIGKILLs a journaling daemon once a task has completed
// and restarts it on the same address over the same journal directory. The
// restarted daemon must rebuild the run from its journal alone, and the same
// agent processes, riding out the outage on their poll backoff, must finish
// it.
func testLiveServerKill(t *testing.T, bin, agentBin string) {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	journal := filepath.Join(t.TempDir(), "journal")
	d := startDaemon(t, bin, "serve", "-addr", "127.0.0.1:0", "-journal", journal)
	r := newLiveRun(ctx, t, agentBin, d)

	r.agent("worker-1")
	r.agent("worker-2")
	if _, err := r.client.StartRun(ctx, r.id); err != nil {
		t.Fatal(err)
	}
	r.waitFor("a task completed", func(st live.RunStatusResponse) bool { return st.TasksCompleted >= 1 })
	if err := d.cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	<-d.exited
	d = startDaemon(t, bin, "serve", "-addr", strings.TrimPrefix(r.url, "http://"), "-journal", journal)
	r.procs = append(r.procs, d)
	if d.url != r.url {
		t.Fatalf("restarted daemon announced %s, want %s", d.url, r.url)
	}
	if m := r.metrics(); m.Live == nil || m.Live.RunsRecovered < 1 {
		t.Fatalf("/metrics live block %+v after the restart: want at least one run recovered from the journal", m.Live)
	}
	r.finish(nil)
	if err := d.stop(); err != nil {
		t.Error(err)
	}
}
