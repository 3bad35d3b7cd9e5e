// Package chaos is the seeded, deterministic fault-injection harness.
//
// WIRE's premise is that clouds are unreliable (§II-B): orders take a lag to
// act and do not always act faithfully, instances vary and die, and the
// network between a controller and its clients drops, delays, and garbles
// traffic. This package injects exactly those faults — reproducibly — so
// every layer above it can be tested for fault tolerance:
//
//   - Transport wraps an http.RoundTripper and injects request drops,
//     synthesized 5xx responses, post-delivery connection resets (the
//     request WAS processed; the response is lost), and delays. It is what
//     the scenario runner's chaos certificate puts between the retrying
//     client and the daemon.
//   - CloudFaults implements sim.FaultInjector: lost and duplicated launch
//     orders, dead-on-arrival instances, and straggler activation delays,
//     layered on internal/sim's existing MTBF crash path.
//
// Determinism: a Plan plus a stream id fully determines the fault schedule.
// Every injector derives a private splitmix64-seeded generator from
// (Plan.Seed, stream label, stream id) and consumes a fixed number of draws
// per decision, so the k-th HTTP attempt (or k-th launch order) of a stream
// always meets the same fate, independent of wall-clock timing or goroutine
// interleaving.
package chaos

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/dist"
	"repro/internal/sim"
	"repro/internal/simtime"
)

// Plan configures every fault class. The zero value injects nothing. All
// probabilities are per decision point: per HTTP attempt for the network
// faults, per controller launch order for the cloud faults.
type Plan struct {
	// Seed drives every fault schedule; the same seed and plan reproduce
	// the same schedule exactly.
	Seed int64 `json:"seed"`

	// Network faults (Transport). At most one fires per attempt, so the
	// three probabilities must sum to ≤ 1.
	//
	// DropRequest fails the attempt before the request is sent
	// (connection refused): the server never sees it.
	DropRequest float64 `json:"drop_request,omitempty"`
	// Err5xx synthesizes a 503 without delivering the request (a dying
	// proxy): the server never sees it.
	Err5xx float64 `json:"err_5xx,omitempty"`
	// DropResponse delivers the request, then discards the response and
	// reports a connection reset: the server HAS processed it. This is
	// the fault that exposes non-idempotent planning.
	DropResponse float64 `json:"drop_response,omitempty"`
	// DelayProb delays an attempt (orthogonal to the fates above) by a
	// uniform draw from (0, MaxDelay].
	DelayProb float64       `json:"delay_prob,omitempty"`
	MaxDelay  time.Duration `json:"max_delay,omitempty"`

	// Cloud faults (CloudFaults). At most one fires per launch order, so
	// the three probabilities must sum to ≤ 1.
	LostOrder      float64 `json:"lost_order,omitempty"`
	DuplicateOrder float64 `json:"duplicate_order,omitempty"`
	DeadOnArrival  float64 `json:"dead_on_arrival,omitempty"`
	// StragglerProb delays one materialized launch's activation by a
	// uniform draw from (0, MaxStragglerDelay] on top of the lag.
	StragglerProb     float64          `json:"straggler_prob,omitempty"`
	MaxStragglerDelay simtime.Duration `json:"max_straggler_delay_s,omitempty"`
}

// Validate reports configuration errors.
func (p Plan) Validate() error {
	probs := []struct {
		name string
		v    float64
	}{
		{"DropRequest", p.DropRequest}, {"Err5xx", p.Err5xx}, {"DropResponse", p.DropResponse},
		{"DelayProb", p.DelayProb},
		{"LostOrder", p.LostOrder}, {"DuplicateOrder", p.DuplicateOrder}, {"DeadOnArrival", p.DeadOnArrival},
		{"StragglerProb", p.StragglerProb},
	}
	for _, pr := range probs {
		if pr.v < 0 || pr.v > 1 {
			return fmt.Errorf("chaos: %s = %v outside [0, 1]", pr.name, pr.v)
		}
	}
	if s := p.DropRequest + p.Err5xx + p.DropResponse; s > 1 {
		return fmt.Errorf("chaos: network fault probabilities sum to %v > 1", s)
	}
	if s := p.LostOrder + p.DuplicateOrder + p.DeadOnArrival; s > 1 {
		return fmt.Errorf("chaos: cloud fault probabilities sum to %v > 1", s)
	}
	if p.DelayProb > 0 && p.MaxDelay <= 0 {
		return fmt.Errorf("chaos: DelayProb set without a positive MaxDelay")
	}
	if p.StragglerProb > 0 && p.MaxStragglerDelay <= 0 {
		return fmt.Errorf("chaos: StragglerProb set without a positive MaxStragglerDelay")
	}
	return nil
}

// Active reports whether the plan injects anything at all.
func (p Plan) Active() bool {
	return p.DropRequest > 0 || p.Err5xx > 0 || p.DropResponse > 0 || p.DelayProb > 0 ||
		p.LostOrder > 0 || p.DuplicateOrder > 0 || p.DeadOnArrival > 0 || p.StragglerProb > 0
}

// Stream labels keep the schedules of one stream id from ever coinciding.
// Fate and straggler draws use separate sub-streams so the k-th launch
// order's fate does not depend on how many straggler draws preceded it.
const (
	streamNetwork   = "chaos/network"
	streamCloud     = "chaos/cloud"
	streamStraggler = "chaos/cloud/straggler"
	streamShard     = "chaos/shard-kill"
	streamChurn     = "chaos/churn"
)

// rng derives the private generator of one (plan, stream label, stream
// coordinates) — a stream id, or two-dimensional ones like (task, attempt).
func (p Plan) rng(label string, coords ...uint64) *rand.Rand {
	return rand.New(rand.NewSource(dist.DeriveSeed(p.Seed, label, coords...)))
}

// ShardKillSchedule is the shard-kill fault stream of the sharded control
// plane's certificate: among n session shards it selects the victim and a
// jitter in [0, maxJitter) on the number of plans the victim serves before it
// is killed. Both are pure functions of the plan seed with a fixed draw order
// (victim first, then jitter), so the same seed fells the same shard at the
// same point of its work in every run, however fast the machine plans — the
// property the failover certificate pins its journal-handoff assertions on.
func (p Plan) ShardKillSchedule(n, maxJitter int) (victim, jitter int) {
	if n <= 0 {
		return 0, 0
	}
	rng := p.rng(streamShard, 0)
	victim = int(rng.Int63n(int64(n)))
	if maxJitter > 0 {
		jitter = int(rng.Float64() * float64(maxJitter))
	}
	return victim, jitter
}

// ChurnAction is one membership-churn event kind.
type ChurnAction int

// Churn event kinds: an abrupt kill (no drain), a graceful drain, and a
// (re)join of a previously killed or drained shard.
const (
	ChurnKill ChurnAction = iota
	ChurnDrain
	ChurnJoin
)

// String implements fmt.Stringer.
func (a ChurnAction) String() string {
	switch a {
	case ChurnKill:
		return "kill"
	case ChurnDrain:
		return "drain"
	case ChurnJoin:
		return "join"
	default:
		return fmt.Sprintf("churn(%d)", int(a))
	}
}

// ChurnEvent is one entry in a membership-churn schedule.
type ChurnEvent struct {
	// At is the event's offset from the start of the run.
	At time.Duration
	// Action is what happens to the shard.
	Action ChurnAction
	// Shard indexes the fleet [0, n).
	Shard int
}

// ChurnSchedule is the elastic control plane's churn fault stream: `events`
// membership events (kill / drain / join) over an n-shard fleet, spaced by
// uniform gaps in [minGap, maxGap]. The schedule is a pure function of the
// plan seed with a fixed draw order per event (gap, then action, then
// shard), so a churn certificate replays the exact same interleavings —
// including the nasty ones (kill-during-drain, join-during-failover) — on
// every run with the same seed. The harness applies each event best-effort:
// a drain of an already-dead shard or a join of a live one is itself a
// wanted interleaving, not an error.
func (p Plan) ChurnSchedule(n, events int, minGap, maxGap time.Duration) []ChurnEvent {
	if n <= 0 || events <= 0 {
		return nil
	}
	if minGap < 0 {
		minGap = 0
	}
	if maxGap < minGap {
		maxGap = minGap
	}
	rng := p.rng(streamChurn, 0)
	out := make([]ChurnEvent, events)
	at := time.Duration(0)
	for i := range out {
		gap := minGap
		if maxGap > minGap {
			gap += time.Duration(rng.Int63n(int64(maxGap - minGap + 1)))
		}
		at += gap
		var action ChurnAction
		switch u := rng.Float64(); {
		case u < 0.4:
			action = ChurnKill
		case u < 0.7:
			action = ChurnDrain
		default:
			action = ChurnJoin
		}
		out[i] = ChurnEvent{At: at, Action: action, Shard: int(rng.Int63n(int64(n)))}
	}
	return out
}

// FaultKind labels one injected fault.
type FaultKind int

// Injected fault kinds.
const (
	FaultNone FaultKind = iota
	FaultDropRequest
	FaultErr5xx
	FaultDropResponse
	FaultLostOrder
	FaultDuplicateOrder
	FaultDeadOnArrival
	FaultStraggler
)

// String implements fmt.Stringer.
func (k FaultKind) String() string {
	switch k {
	case FaultNone:
		return "none"
	case FaultDropRequest:
		return "drop-request"
	case FaultErr5xx:
		return "err-5xx"
	case FaultDropResponse:
		return "drop-response"
	case FaultLostOrder:
		return "lost-order"
	case FaultDuplicateOrder:
		return "duplicate-order"
	case FaultDeadOnArrival:
		return "dead-on-arrival"
	case FaultStraggler:
		return "straggler"
	default:
		return fmt.Sprintf("fault(%d)", int(k))
	}
}

// NetFault is one attempt's entry in a network fault schedule.
type NetFault struct {
	Kind  FaultKind
	Delay time.Duration // 0 = not delayed
}

// netDecider draws the network fault schedule of one stream. The draw
// pattern per attempt is fixed (one fate draw, one delay-gate draw, one
// delay-size draw when gated in), so attempt k's outcome depends only on
// (plan, stream), never on timing.
type netDecider struct {
	plan Plan
	rng  *rand.Rand
}

func (d *netDecider) next() NetFault {
	var f NetFault
	u := d.rng.Float64()
	switch {
	case u < d.plan.DropRequest:
		f.Kind = FaultDropRequest
	case u < d.plan.DropRequest+d.plan.Err5xx:
		f.Kind = FaultErr5xx
	case u < d.plan.DropRequest+d.plan.Err5xx+d.plan.DropResponse:
		f.Kind = FaultDropResponse
	}
	if d.plan.DelayProb > 0 && d.rng.Float64() < d.plan.DelayProb {
		f.Delay = time.Duration((1 - d.rng.Float64()) * float64(d.plan.MaxDelay))
	}
	return f
}

// cloudDecider draws the cloud fault schedule of one stream.
type cloudDecider struct {
	plan     Plan
	fateRng  *rand.Rand
	stragRng *rand.Rand
}

func newCloudDecider(p Plan, stream int64) *cloudDecider {
	return &cloudDecider{
		plan:     p,
		fateRng:  p.rng(streamCloud, uint64(stream)),
		stragRng: p.rng(streamStraggler, uint64(stream)),
	}
}

func (d *cloudDecider) fate() sim.LaunchFate {
	u := d.fateRng.Float64()
	switch {
	case u < d.plan.LostOrder:
		return sim.LaunchLost
	case u < d.plan.LostOrder+d.plan.DuplicateOrder:
		return sim.LaunchDuplicated
	case u < d.plan.LostOrder+d.plan.DuplicateOrder+d.plan.DeadOnArrival:
		return sim.LaunchDOA
	default:
		return sim.LaunchOK
	}
}

func (d *cloudDecider) stragglerDelay() simtime.Duration {
	if d.plan.StragglerProb <= 0 {
		return 0
	}
	if d.stragRng.Float64() >= d.plan.StragglerProb {
		return 0
	}
	return (1 - d.stragRng.Float64()) * d.plan.MaxStragglerDelay
}
