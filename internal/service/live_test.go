package service

import (
	"context"
	"encoding/json"
	"net"
	"testing"
	"time"

	"repro/internal/dag"
	"repro/internal/dagio"
	"repro/internal/exec"
)

func TestLiveControllerFactoryResolvesEveryPolicy(t *testing.T) {
	for _, name := range PolicyNames() {
		var spec json.RawMessage
		if name == "deadline" {
			spec = json.RawMessage(`{"deadline_s": 600}`)
		}
		ctrl, err := LiveControllerFactory(name, spec)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if ctrl.Name() == "" {
			t.Fatalf("%s: empty controller name", name)
		}
	}
	if _, err := LiveControllerFactory("no-such-policy", nil); err == nil {
		t.Fatal("unknown policy accepted")
	}
	if _, err := LiveControllerFactory("wire", json.RawMessage(`{garbage`)); err == nil {
		t.Fatal("malformed controller spec accepted")
	}
}

func TestLivePlaneToggle(t *testing.T) {
	if srv := New(Config{}); srv.live == nil {
		t.Fatal("live plane missing under default config")
	}
}

// TestServeDrainsLiveLeasesOnShutdown: shutdown must hold the HTTP plane open
// until in-flight agent leases report, bounded by drainTimeout — connection
// draining alone would abandon the agent mid-task and lose its measurement.
func TestServeDrainsLiveLeasesOnShutdown(t *testing.T) {
	srv := New(Config{drainTimeout: 5 * time.Second})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ctx, ln) }()

	b := dag.NewBuilder("one")
	s := b.AddStage("work")
	b.AddTask(s, "t", 10000, 0, 1)
	client := exec.NewLiveClient("http://" + ln.Addr().String())
	info, err := client.CreateRun(ctx, &exec.CreateRunRequest{
		Workflow:         dagio.Encode(b.MustBuild()),
		SlotsPerInstance: 1,
		LagTimeS:         0.001,
		ChargingUnitS:    10,
		MaxInstances:     1,
		Timescale:        1,
		Start:            true,
	})
	if err != nil {
		t.Fatal(err)
	}
	reg, err := client.Register(ctx, info.ID, "w", 1)
	if err != nil {
		t.Fatal(err)
	}
	var lease exec.Lease
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := client.Poll(context.Background(), info.ID, reg.AgentID, 100*time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		if len(resp.Leases) == 1 {
			lease = resp.Leases[0]
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("lease never granted")
		}
	}

	// Begin shutdown with the lease outstanding, then report it over HTTP a
	// beat later: the request must still be served.
	cancel()
	time.Sleep(100 * time.Millisecond)
	ack, err := client.Complete(context.Background(), info.ID, reg.AgentID, lease.ID, exec.CompleteReport{ExecS: 10000})
	if err != nil {
		t.Fatalf("complete during drain: %v", err)
	}
	if ack.Stale {
		t.Fatal("completion during drain acked stale")
	}
	select {
	case err := <-served:
		if err != nil {
			t.Fatalf("Serve: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Serve did not return after drain")
	}
	if got := srv.live.Metrics().Counters.LeasesLost; got != 0 {
		t.Fatalf("%d leases lost across shutdown", got)
	}
}

// TestServeClosesUnusedConnsOnShutdown: a connection that was dialled and
// never sent a request (a pooled transport opens them ahead) must not hold
// shutdown; net/http alone waits until such a connection is five seconds old.
func TestServeClosesUnusedConnsOnShutdown(t *testing.T) {
	srv := New(Config{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ctx, ln) }()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// A request round trip on another connection guarantees the server has
	// accepted the idle one before the shutdown starts.
	if _, err := NewClient("http://" + ln.Addr().String()).Ready(context.Background()); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	cancel()
	select {
	case err := <-served:
		if err != nil {
			t.Fatal(err)
		}
		if d := time.Since(start); d > time.Second {
			t.Fatalf("Serve took %v to return", d)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Serve did not return")
	}
}
