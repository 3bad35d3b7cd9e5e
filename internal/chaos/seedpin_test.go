package chaos

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

// seedPin renders a fixed set of fault draws as one string: the network and
// cloud schedules, the shard-kill and churn streams and the per-link decider
// of a Network. Every one of them is a pure function of the plan seed.
func seedPin() string {
	p := testPlan()
	var b strings.Builder
	for _, f := range netSchedule(p, 7, 16) {
		fmt.Fprintf(&b, "%d/%d ", f.Kind, f.Delay)
	}
	b.WriteString("| ")
	for _, f := range cloudSchedule(p, 3, 16) {
		fmt.Fprintf(&b, "%d", f)
	}
	victim, jitter := p.ShardKillSchedule(5, 50)
	fmt.Fprintf(&b, " | %d %d |", victim, jitter)
	for _, e := range p.ChurnSchedule(4, 4, time.Second, 3*time.Second) {
		fmt.Fprintf(&b, " %v/%v/%d", e.At, e.Action, e.Shard)
	}
	n := NewNetwork(p)
	fmt.Fprintf(&b, " | %d", n.decider(linkKey{"router", "s1"}).Int63())
	return b.String()
}

// TestSeedDerivationPinned holds the fault streams to the values recorded
// before the seed derivation moved into internal/dist: a change to the
// derivation would silently reshuffle every chaos certificate's schedule.
func TestSeedDerivationPinned(t *testing.T) {
	const want = "0/0 0/0 0/0 3/0 0/0 0/0 0/0 1/0 0/0 0/389930 3/31761 2/214598 0/0 2/0 0/0 0/55903 | " +
		"0300000003000001 | 3 38 | " +
		"1.468253988s/join/3 3.8282145s/kill/2 6.075458289s/kill/2 8.667008676s/join/3 | " +
		"3864181127617723427"
	if got := seedPin(); got != want {
		t.Fatalf("fault draws changed:\n got %s\nwant %s", got, want)
	}
}
