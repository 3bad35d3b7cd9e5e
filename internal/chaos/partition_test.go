package chaos

import (
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"
	"time"
)

// TestPartitionScheduleDeterministic pins the nemesis schedule: the same seed
// reproduces the same event sequence, a different seed reshuffles it, gaps
// and durations stay within bounds, and forced kinds are honored in order.
func TestPartitionScheduleDeterministic(t *testing.T) {
	p := Plan{Seed: 42}
	const minGap, maxGap = 50 * time.Millisecond, 300 * time.Millisecond
	const minDur, maxDur = 100 * time.Millisecond, 500 * time.Millisecond
	a := p.PartitionSchedule(3, 12, minGap, maxGap, minDur, maxDur)
	b := p.PartitionSchedule(3, 12, minGap, maxGap, minDur, maxDur)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("partition schedule differs between runs of the same seed")
	}
	if len(a) != 12 {
		t.Fatalf("schedule has %d events, want 12", len(a))
	}
	prev := time.Duration(0)
	kinds := map[PartitionKind]int{}
	for i, ev := range a {
		gap := ev.At - prev
		if gap < minGap || gap > maxGap {
			t.Errorf("event %d: gap %v outside [%v, %v]", i, gap, minGap, maxGap)
		}
		prev = ev.At
		if ev.Duration < minDur || ev.Duration > maxDur {
			t.Errorf("event %d: duration %v outside [%v, %v]", i, ev.Duration, minDur, maxDur)
		}
		if ev.Shard < 0 || ev.Shard >= 3 {
			t.Errorf("event %d targets shard %d of a 3-shard fleet", i, ev.Shard)
		}
		kinds[ev.Kind]++
	}
	if len(kinds) < 2 {
		t.Errorf("12 events drew only %d distinct kinds: %v", len(kinds), kinds)
	}
	for _, k := range []PartitionKind{PartitionSplit, PartitionOneWay, PartitionSlow} {
		if k.String() == "" {
			t.Errorf("kind %d has no name", k)
		}
	}

	q := Plan{Seed: 43}
	if reflect.DeepEqual(a, q.PartitionSchedule(3, 12, minGap, maxGap, minDur, maxDur)) {
		t.Error("seeds 42 and 43 share a partition schedule")
	}

	// Forced kinds: honored in order, everything else still seeded.
	want := []PartitionKind{PartitionSplit, PartitionOneWay, PartitionSlow}
	forced := p.PartitionScheduleKinds(want, 3, minGap, maxGap, minDur, maxDur)
	if len(forced) != 3 {
		t.Fatalf("forced schedule has %d events, want 3", len(forced))
	}
	for i, ev := range forced {
		if ev.Kind != want[i] {
			t.Errorf("forced event %d kind %v, want %v", i, ev.Kind, want[i])
		}
	}
	if !reflect.DeepEqual(forced, p.PartitionScheduleKinds(want, 3, minGap, maxGap, minDur, maxDur)) {
		t.Error("forced schedule differs between runs of the same seed")
	}

	// Guard rails.
	if p.PartitionSchedule(0, 5, minGap, maxGap, minDur, maxDur) != nil {
		t.Error("zero shards produced a schedule")
	}
	if p.PartitionSchedule(3, 0, minGap, maxGap, minDur, maxDur) != nil {
		t.Error("zero events produced a schedule")
	}
}

// drive sends n requests from each named sender to the target and returns the
// marshaled fault log — the byte-level witness the determinism contract pins.
func drive(t *testing.T, n *Network, senders []string, target string, reqs int) []byte {
	t.Helper()
	for _, from := range senders {
		tr := n.Transport(from, http.DefaultTransport)
		hc := &http.Client{Transport: tr}
		for i := 0; i < reqs; i++ {
			resp, err := hc.Get(target)
			if err == nil {
				resp.Body.Close()
			}
		}
	}
	n.mu.Lock()
	b, err := json.Marshal(n.log)
	n.mu.Unlock()
	if err != nil {
		t.Fatalf("marshal log: %v", err)
	}
	return b
}

// TestNetworkFaultLogDeterministic is the partition/slow-link determinism
// acceptance test: identical (seed, link) draw streams produce byte-identical
// fault logs across runs — including under -race, where the scheduler is
// deliberately hostile (the per-sender request order here is sequential, as
// in the per-link schedule contract).
func TestNetworkFaultLogDeterministic(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
	}))
	defer ts.Close()

	build := func() *Network {
		n := NewNetwork(Plan{Seed: 42})
		n.Register("shard", ts.URL)
		n.Cut("router", "shard")
		n.Slow("client", "shard", 2*time.Millisecond, 0.5)
		return n
	}
	a := drive(t, build(), []string{"router", "client"}, ts.URL, 50)
	b := drive(t, build(), []string{"router", "client"}, ts.URL, 50)
	if string(a) != string(b) {
		t.Fatalf("fault logs differ between identical runs:\n%s\n%s", a, b)
	}
	if string(a) == "[]" || string(a) == "null" {
		t.Fatal("no faults logged with a cut and a slow link active")
	}

	// A different seed reshuffles the slow-link stream.
	n2 := NewNetwork(Plan{Seed: 43})
	n2.Register("shard", ts.URL)
	n2.Slow("client", "shard", 2*time.Millisecond, 0.5)
	n3 := NewNetwork(Plan{Seed: 42})
	n3.Register("shard", ts.URL)
	n3.Slow("client", "shard", 2*time.Millisecond, 0.5)
	l2 := drive(t, n2, []string{"client"}, ts.URL, 80)
	l3 := drive(t, n3, []string{"client"}, ts.URL, 80)
	if string(l2) == string(l3) {
		t.Error("seeds 42 and 43 share a slow-link fault log")
	}
}

// TestNetworkLinkSemantics checks the directed-rule behaviors: one-way cuts
// only affect their direction, symmetric partitions cut both, heal restores
// traffic, and unregistered hosts pass through.
func TestNetworkLinkSemantics(t *testing.T) {
	var served int
	var mu sync.Mutex
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		served++
		mu.Unlock()
		w.WriteHeader(http.StatusOK)
	}))
	defer ts.Close()

	n := NewNetwork(Plan{Seed: 1})
	n.Register("shard", ts.URL)
	get := func(from string) error {
		hc := &http.Client{Transport: n.Transport(from, nil)}
		resp, err := hc.Get(ts.URL)
		if err == nil {
			resp.Body.Close()
		}
		return err
	}

	// One-way: router->shard cut, peer->shard open.
	n.Cut("router", "shard")
	err := get("router")
	var le *LinkError
	if !errors.As(err, &le) {
		t.Fatalf("cut link returned %v, want LinkError", err)
	}
	if err := get("peer"); err != nil {
		t.Fatalf("uncut direction failed: %v", err)
	}

	// Symmetric split cuts both cross-group directions.
	n.Heal()
	n.Partition([]string{"shard"}, []string{"router", "peer"})
	if err := get("router"); !errors.As(err, &le) {
		t.Fatalf("split link router->shard returned %v, want LinkError", err)
	}
	if err := get("peer"); !errors.As(err, &le) {
		t.Fatalf("split link peer->shard returned %v, want LinkError", err)
	}

	// Heal restores everything.
	n.Heal()
	if err := get("router"); err != nil {
		t.Fatalf("healed link failed: %v", err)
	}
	n.mu.Lock()
	c := n.counts
	n.mu.Unlock()
	if c.Cut == 0 || c.Attempts == 0 {
		t.Errorf("counters not recording: %+v", c)
	}

	// Requests to unregistered hosts are never touched.
	other := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
	}))
	defer other.Close()
	n.Cut("router", "shard")
	hc := &http.Client{Transport: n.Transport("router", nil)}
	resp, err := hc.Get(other.URL)
	if err != nil {
		t.Fatalf("unregistered host blocked: %v", err)
	}
	resp.Body.Close()
}
