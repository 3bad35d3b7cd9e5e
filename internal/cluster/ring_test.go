package cluster

import (
	"strconv"
	"testing"
)

func ringShards(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = "shard-" + strconv.Itoa(i)
	}
	return out
}

// TestRingBalance pins the satellite's balance bound: with DefaultVNodes
// virtual nodes, 10k session IDs spread across the fleet within ±25% of the
// per-shard mean. The bound is what the router's placement quality rests on;
// tightening vnodes below the default is what would break it.
func TestRingBalance(t *testing.T) {
	for _, n := range []int{2, 3, 5, 8, 16} {
		r, err := NewRing(ringShards(n), DefaultVNodes)
		if err != nil {
			t.Fatal(err)
		}
		spread := r.Spread(10000)
		mean := 10000.0 / float64(n)
		for shard, count := range spread {
			dev := (float64(count) - mean) / mean
			if dev < -0.25 || dev > 0.25 {
				t.Errorf("%d shards: %s owns %d keys, %+.1f%% off the mean %f", n, shard, count, dev*100, mean)
			}
		}
	}
}

// TestRingDeterminism pins that ownership is a pure function of the shard
// set: two rings built from the same shards agree on every key, and shard
// list order does not matter.
func TestRingDeterminism(t *testing.T) {
	a, err := NewRing([]string{"s0", "s1", "s2"}, 64)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewRing([]string{"s2", "s0", "s1"}, 64)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		key := "session-" + strconv.Itoa(i)
		if ao, bo := a.Owner(key), b.Owner(key); ao != bo {
			t.Fatalf("key %s: owner %s != %s under permuted shard list", key, ao, bo)
		}
	}
}

// TestRingMinimalRemapOnLeave pins the consistent-hashing property the
// failover story depends on: removing one shard moves ONLY that shard's keys
// — every key owned by a survivor keeps its owner.
func TestRingMinimalRemapOnLeave(t *testing.T) {
	shards := ringShards(5)
	before, err := NewRing(shards, DefaultVNodes)
	if err != nil {
		t.Fatal(err)
	}
	removed := shards[2]
	after, err := NewRing(append(append([]string(nil), shards[:2]...), shards[3:]...), DefaultVNodes)
	if err != nil {
		t.Fatal(err)
	}
	moved := 0
	for i := 0; i < 10000; i++ {
		key := "session-" + strconv.Itoa(i)
		was, now := before.Owner(key), after.Owner(key)
		if was == removed {
			moved++
			continue // had to move somewhere
		}
		if was != now {
			t.Fatalf("key %s moved %s -> %s though %s was the shard removed", key, was, now, removed)
		}
	}
	if moved == 0 {
		t.Fatal("removed shard owned no keys; the test proved nothing")
	}
}

// TestRingMinimalRemapOnJoin pins the other direction: adding a shard only
// moves keys ONTO the new shard, never between existing ones.
func TestRingMinimalRemapOnJoin(t *testing.T) {
	shards := ringShards(4)
	before, err := NewRing(shards, DefaultVNodes)
	if err != nil {
		t.Fatal(err)
	}
	joined := "shard-new"
	after, err := NewRing(append(append([]string(nil), shards...), joined), DefaultVNodes)
	if err != nil {
		t.Fatal(err)
	}
	gained := 0
	for i := 0; i < 10000; i++ {
		key := "session-" + strconv.Itoa(i)
		was, now := before.Owner(key), after.Owner(key)
		if was == now {
			continue
		}
		if now != joined {
			t.Fatalf("key %s moved %s -> %s though only %s joined", key, was, now, joined)
		}
		gained++
	}
	if gained == 0 {
		t.Fatal("joined shard gained no keys; the test proved nothing")
	}
}

// TestRingErrors pins construction validation.
func TestRingErrors(t *testing.T) {
	if _, err := NewRing(nil, 0); err == nil {
		t.Error("empty shard list accepted")
	}
	if _, err := NewRing([]string{"a", "a"}, 8); err == nil {
		t.Error("duplicate shard accepted")
	}
}
