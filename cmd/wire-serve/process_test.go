package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/audit"
	"repro/internal/cloud"
	"repro/internal/cluster"
	"repro/internal/scenario"
	"repro/internal/service"
)

// TestProcesses builds wire-serve once and drives it as real processes, for
// what no in-process certificate can show: exit statuses, a real SIGKILL, and
// the admin and audit subcommands against a live fleet.
func TestProcesses(t *testing.T) {
	if testing.Short() {
		t.Skip("builds wire-serve and runs a fleet of its processes")
	}
	bin := filepath.Join(t.TempDir(), "wire-serve")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	t.Run("SIGTERM", func(t *testing.T) { testSIGTERM(t, bin) })
	t.Run("ClusterFaults", func(t *testing.T) { testClusterFaults(t, bin) })
}

// testSIGTERM plans one session over HTTP, then requires SIGTERM to end the
// daemon with status 0 after a clean shutdown.
func testSIGTERM(t *testing.T, bin string) {
	d := startDaemon(t, bin, "serve", "-addr", "127.0.0.1:0")
	var created struct {
		ID string `json:"id"`
	}
	post(t, d.url+"/v1/sessions", `{
		"workflow": {"name":"smoke","stages":[{"id":0,"name":"s"}],
		             "tasks":[{"id":0,"stage":0,"exec_time_s":10},
		                      {"id":1,"stage":0,"exec_time_s":10}]},
		"policy": "wire"}`, &created)
	if created.ID == "" {
		t.Fatal("create answered no session id")
	}
	var plan struct {
		Decision json.RawMessage `json:"decision"`
	}
	post(t, d.url+"/v1/sessions/"+created.ID+"/plan", `{
		"now_s":180, "interval_s":180, "charging_unit_s":900, "lag_time_s":180,
		"slots_per_instance":4, "max_instances":12,
		"tasks":[{"id":0,"stage":0,"state":"ready"},
		         {"id":1,"stage":0,"state":"ready"}]}`, &plan)
	if len(plan.Decision) == 0 {
		t.Fatal("plan answered no decision")
	}
	req, _ := http.NewRequest(http.MethodDelete, d.url+"/v1/sessions/"+created.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		t.Fatalf("delete: status %d", resp.StatusCode)
	}
	if err := d.stop(); err != nil {
		t.Fatal(err)
	}
}

// The session load the cluster faults land in: the kill fires when killAt
// sessions have finished and the drain cycle when drainAt have, so both land
// while sessions still run.
const (
	faultSessions = 120
	killAt        = faultSessions / 4
	drainAt       = faultSessions / 2
)

// testClusterFaults runs sessions through a router in front of three journaling
// shards while one shard is SIGKILLed and another is drained, restarted and
// rejoined through `wire-serve admin`, each when enough sessions have
// finished; then every session must have completed twin-identical, the router
// must count the failover, drain and join, and `wire-serve audit` must find
// the merged journals clean.
func testClusterFaults(t *testing.T, bin string) {
	root := t.TempDir()
	var dirs []string
	var shards []*daemon
	for i := 0; i < 3; i++ {
		dir := filepath.Join(root, fmt.Sprintf("s%d", i))
		dirs = append(dirs, dir)
		shards = append(shards, startDaemon(t, bin, "serve", "-shard", "-journal", dir, "-addr", "127.0.0.1:0"))
	}
	routeArgs := []string{"route", "-addr", "127.0.0.1:0", "-heartbeat", "100ms", "-fail-after", "3"}
	for i, sh := range shards {
		routeArgs = append(routeArgs, "-shard", shardArg(i, sh.url, dirs[i]))
	}
	router := startDaemon(t, bin, routeArgs...)

	// A failed test still waits for the drain cycle, after cancelling it.
	var cycling sync.WaitGroup
	defer cycling.Wait()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	// The faults fire from the progress callback, never from a timer: the
	// kill inline, the drain cycle on its own goroutine so the sessions keep
	// running through it. fired records when each fault fired and lastDone
	// when the last session finished.
	var (
		mu                 sync.Mutex
		fired              = map[string]time.Time{}
		lastDone, cycleEnd time.Time
		cycleErr           error
	)
	victim, rolled := shards[1], 2
	progress := func(done, total int) {
		mu.Lock()
		defer mu.Unlock()
		switch {
		case done == killAt:
			fired["kill"] = time.Now()
			if err := victim.cmd.Process.Kill(); err != nil {
				t.Errorf("SIGKILL s1: %v", err)
			}
		case done == drainAt:
			fired["drain"] = time.Now()
			cycling.Add(1)
			go func() {
				defer cycling.Done()
				cycleErr = rollShard(ctx, t, bin, router.url, shards, rolled, dirs[rolled])
				cycleEnd = time.Now()
			}()
		}
		if done == total {
			lastDone = time.Now()
		}
	}
	start := time.Now()
	res, err := scenario.Run(ctx, scenario.Config{
		Client:      service.NewClient(router.url, service.WithRetry(service.DefaultChaosRetry())),
		Sessions:    faultSessions,
		Concurrency: 8,
		WorkflowKey: "genome-s",
		Cloud: cloud.Config{
			SlotsPerInstance: 4,
			LagTime:          180,
			ChargingUnit:     900,
			MaxInstances:     12,
		},
		Noise:          0.08,
		SeedBase:       1,
		Verify:         true,
		RetainSessions: true,
		Progress:       progress,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Verdict(); err != nil {
		t.Errorf("verdict: %v: %v", err, res.Errors)
	}
	cycling.Wait()
	if cycleErr != nil {
		t.Error(cycleErr)
	}
	since := func(at time.Time) time.Duration { return at.Sub(start).Round(time.Millisecond) }
	t.Logf("%d sessions, %d client retries: kill at %v, drain cycle %v to %v, last session done at %v",
		res.Sessions, res.Retries, since(fired["kill"]), since(fired["drain"]), since(cycleEnd), since(lastDone))
	for _, fault := range []string{"kill", "drain"} {
		switch at := fired[fault]; {
		case at.IsZero():
			t.Errorf("the %s never fired", fault)
		case !at.Before(lastDone):
			t.Errorf("the %s fired after the last session finished", fault)
		}
	}

	// The failover runs on the router's heartbeat, after the kill; poll for it.
	var counters cluster.RouterCounters
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(50 * time.Millisecond) {
		counters = routerCounters(t, router.url)
		if counters.FailoversTotal >= 1 || time.Now().After(deadline) {
			break
		}
	}
	if counters.FailoversTotal < 1 || counters.DrainsTotal < 1 || counters.JoinsTotal < 1 {
		t.Errorf("router counted %d failover(s), %d drain(s), %d join(s); want at least 1 each",
			counters.FailoversTotal, counters.DrainsTotal, counters.JoinsTotal)
	}

	out, err := exec.CommandContext(ctx, bin, append([]string{"audit"}, dirs...)...).Output()
	if err != nil {
		t.Fatalf("audit: %v\n%s", err, out)
	}
	var rep audit.Report
	if err := json.Unmarshal(out, &rep); err != nil {
		t.Fatalf("audit report: %v\n%s", err, out)
	}
	// A create the killed shard journaled but never answered is retried
	// under a new ID, so the journals may hold more sessions than ran.
	if rep.Sessions < faultSessions || !rep.Clean() {
		t.Errorf("audit: %d session(s), want at least %d; violations %+v", rep.Sessions, faultSessions, rep.Violations)
	}
	if t.Failed() {
		for _, d := range append(shards, router) {
			t.Logf("%s log:\n%s", d.name, d.log())
		}
	}
}

// rollShard drains shard i out of the ring, stops it with SIGTERM, restarts
// it on a fresh port over the same journal directory, and joins it back.
func rollShard(ctx context.Context, t *testing.T, bin, routerURL string, shards []*daemon, i int, dir string) error {
	name := fmt.Sprintf("s%d", i)
	if err := admin(ctx, bin, routerURL, "-drain", name); err != nil {
		return err
	}
	if err := shards[i].stop(); err != nil {
		return err
	}
	d, err := spawn(t, bin, "serve", "-shard", "-journal", dir, "-addr", "127.0.0.1:0")
	if err != nil {
		return err
	}
	shards[i] = d
	return admin(ctx, bin, routerURL, "-join", shardArg(i, d.url, dir))
}

// retryable are the admin refusals an operator runs again: 409 while another
// topology operation or a failover is in flight, 502 for an operation that
// failed mid-rebalance (running it again finishes it), 503 for a join deferred
// while the router confirms whether an unreachable shard is dead.
var retryable = regexp.MustCompile(`HTTP (409|502|503)`)

// admin runs `wire-serve admin -router url <op> <arg>` until it succeeds, is
// refused for good, or has been retried for 30 s.
func admin(ctx context.Context, bin, routerURL, op, arg string) error {
	ctx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	for {
		out, err := exec.CommandContext(ctx, bin, "admin", "-router", routerURL, op, arg).CombinedOutput()
		if err == nil {
			return nil
		}
		if !retryable.Match(out) {
			return fmt.Errorf("admin %s %s: %v\n%s", op, arg, err, out)
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("admin %s %s: %v\n%s", op, arg, ctx.Err(), out)
		case <-time.After(50 * time.Millisecond):
		}
	}
}

func shardArg(i int, url, dir string) string {
	return fmt.Sprintf("s%d=%s=%s", i, url, dir)
}

// daemon is one wire-serve process that announced its address.
type daemon struct {
	name    string
	cmd     *exec.Cmd
	url     string
	logPath string
	exited  chan struct{}
	err     error // Wait's result, once exited is closed
}

var announced = regexp.MustCompile(`(?:listening|routing) on (http://\S+)`)

// startDaemon starts `wire-serve args...` and waits for it to announce its
// address; it fails the test if the daemon does not.
func startDaemon(t *testing.T, bin string, args ...string) *daemon {
	t.Helper()
	d, err := spawn(t, bin, args...)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// spawn starts `wire-serve args...` with stdout and stderr in a log file and
// waits for it to print its address. The test's cleanup kills it if it is
// still running and waits for it.
func spawn(t *testing.T, bin string, args ...string) (*daemon, error) {
	logf, err := os.CreateTemp(t.TempDir(), args[0]+"-*.log")
	if err != nil {
		return nil, err
	}
	defer logf.Close()
	d := &daemon{name: strings.Join(args, " "), cmd: exec.Command(bin, args...), logPath: logf.Name(), exited: make(chan struct{})}
	d.cmd.Stdout, d.cmd.Stderr = logf, logf
	if err := d.cmd.Start(); err != nil {
		return nil, err
	}
	go func() {
		d.err = d.cmd.Wait()
		close(d.exited)
	}()
	t.Cleanup(func() {
		d.cmd.Process.Kill()
		<-d.exited
	})
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(10 * time.Millisecond) {
		if m := announced.FindStringSubmatch(d.log()); m != nil {
			d.url = m[1]
			return d, nil
		}
		select {
		case <-d.exited:
			return nil, fmt.Errorf("wire-serve %s exited before announcing its address: %v\n%s", d.name, d.err, d.log())
		default:
		}
	}
	return nil, fmt.Errorf("wire-serve %s never announced its address:\n%s", d.name, d.log())
}

func (d *daemon) log() string {
	b, _ := os.ReadFile(d.logPath)
	return string(b)
}

// stop sends SIGTERM and requires exit status 0 after "shutdown complete".
func (d *daemon) stop() error {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	select {
	case <-d.exited:
	case <-time.After(30 * time.Second):
		return fmt.Errorf("wire-serve %s: no exit within 30s of SIGTERM", d.name)
	}
	if d.err != nil {
		return fmt.Errorf("wire-serve %s: SIGTERM ended it with %v:\n%s", d.name, d.err, d.log())
	}
	if !strings.Contains(d.log(), "shutdown complete") {
		return fmt.Errorf("wire-serve %s: exited without a clean shutdown:\n%s", d.name, d.log())
	}
	return nil
}

// post sends a JSON body and decodes a 2xx answer into out.
func post(t *testing.T, url, body string, out any) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	if resp.StatusCode/100 != 2 {
		t.Fatalf("POST %s: status %d: %s", url, resp.StatusCode, b)
	}
	if err := json.Unmarshal(b, out); err != nil {
		t.Fatalf("POST %s: %v: %s", url, err, b)
	}
}

// routerCounters reads the router block of the router's /metrics.
func routerCounters(t *testing.T, routerURL string) cluster.RouterCounters {
	t.Helper()
	resp, err := http.Get(routerURL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m struct {
		Router cluster.RouterCounters `json:"router"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatalf("router /metrics: %v", err)
	}
	return m.Router
}
