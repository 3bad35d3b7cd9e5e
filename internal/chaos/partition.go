package chaos

import (
	"fmt"
	"math/rand"
	"net/http"
	"net/url"
	"sync"
	"time"

	"repro/internal/dist"
)

// The partition nemesis: seeded schedules of network partitions (symmetric
// splits, one-way link drops, slow links) realized by a link-aware Network
// wrapper over Transport. Where Transport injects per-attempt faults on ONE
// request stream, Network models the topology between named endpoints — the
// router, each shard, the session client, an agent fleet — and applies
// directed per-link rules, so a shard can be alive yet unreachable from the
// router while a peer still sees it: the asymmetric failure mode that
// separates "dead" from "partitioned-from-me".

// Partition stream labels (see the package-level determinism contract).
const (
	streamPartition = "chaos/partition"
	streamLink      = "chaos/link"
)

// PartitionKind is one partition fault class.
type PartitionKind int

const (
	// PartitionSplit isolates one shard symmetrically: every link between it
	// and the rest of the fleet (router and peers) is cut both ways. The
	// router's confirmation probes cannot reach it through any peer, so the
	// split is indistinguishable from death and must fence + fail over.
	PartitionSplit PartitionKind = iota
	// PartitionOneWay cuts only the router→shard link: the shard is alive and
	// its peers still reach it, so the router must classify it partitioned
	// (503 shard_partitioned) instead of fencing a live writer.
	PartitionOneWay
	// PartitionSlow degrades the router→shard link: a seeded fraction of
	// requests is delayed by a bounded uniform draw, which both slows and
	// reorders them. No failover may trigger; the contract is degradation
	// without misclassification.
	PartitionSlow
)

// String implements fmt.Stringer.
func (k PartitionKind) String() string {
	switch k {
	case PartitionSplit:
		return "split"
	case PartitionOneWay:
		return "oneway"
	case PartitionSlow:
		return "slow"
	default:
		return fmt.Sprintf("partition(%d)", int(k))
	}
}

// PartitionEvent is one entry in a partition nemesis schedule.
type PartitionEvent struct {
	// At is the event's offset from the start of the run.
	At time.Duration
	// Duration is how long the fault holds before the link heals.
	Duration time.Duration
	// Kind is the partition class.
	Kind PartitionKind
	// Shard indexes the victim in the fleet [0, n).
	Shard int
}

// PartitionSchedule is the nemesis fault stream: `events` partition events
// over an n-shard fleet, spaced by uniform gaps in [minGap, maxGap], each
// holding for a uniform duration in [minDur, maxDur]. A pure function of the
// plan seed with a fixed draw order per event (gap, kind, shard, duration),
// so the same seed splits the same shard at the same offset on every run.
func (p Plan) PartitionSchedule(n, events int, minGap, maxGap, minDur, maxDur time.Duration) []PartitionEvent {
	return p.partitionSchedule(nil, n, events, minGap, maxGap, minDur, maxDur)
}

// PartitionScheduleKinds is PartitionSchedule with the event kinds forced by
// the caller (an explicit nemesis spec like "split,oneway,slow"): the kind
// draw is skipped, every other draw keeps the seeded order.
func (p Plan) PartitionScheduleKinds(kinds []PartitionKind, n int, minGap, maxGap, minDur, maxDur time.Duration) []PartitionEvent {
	return p.partitionSchedule(kinds, n, len(kinds), minGap, maxGap, minDur, maxDur)
}

func (p Plan) partitionSchedule(kinds []PartitionKind, n, events int, minGap, maxGap, minDur, maxDur time.Duration) []PartitionEvent {
	if n <= 0 || events <= 0 {
		return nil
	}
	if minGap < 0 {
		minGap = 0
	}
	if maxGap < minGap {
		maxGap = minGap
	}
	if minDur < 0 {
		minDur = 0
	}
	if maxDur < minDur {
		maxDur = minDur
	}
	rng := p.rng(streamPartition, 0)
	out := make([]PartitionEvent, events)
	at := time.Duration(0)
	for i := range out {
		gap := minGap
		if maxGap > minGap {
			gap += time.Duration(rng.Int63n(int64(maxGap - minGap + 1)))
		}
		at += gap
		var kind PartitionKind
		if kinds != nil {
			kind = kinds[i]
		} else {
			switch u := rng.Float64(); {
			case u < 1.0/3:
				kind = PartitionSplit
			case u < 2.0/3:
				kind = PartitionOneWay
			default:
				kind = PartitionSlow
			}
		}
		shard := int(rng.Int63n(int64(n)))
		dur := minDur
		if maxDur > minDur {
			dur += time.Duration(rng.Int63n(int64(maxDur - minDur + 1)))
		}
		out[i] = PartitionEvent{At: at, Duration: dur, Kind: kind, Shard: shard}
	}
	return out
}

// LinkError is the injected transport error of a cut link.
type LinkError struct {
	From, To string
}

// Error implements error.
func (e *LinkError) Error() string {
	return fmt.Sprintf("chaos: link %s->%s cut by partition", e.From, e.To)
}

// LinkFault is one entry in a Network's ordered fault log.
type LinkFault struct {
	// Seq orders faults across all links of the network.
	Seq int64 `json:"seq"`
	// From and To name the link's endpoints.
	From string `json:"from"`
	To   string `json:"to"`
	// Kind is "cut" (request dropped) or "slow" (request delayed).
	Kind string `json:"kind"`
	// Delay is the injected delay of a "slow" fault.
	Delay time.Duration `json:"delay_ns,omitempty"`
}

// LinkCounts aggregates a Network's injected faults.
type LinkCounts struct {
	Attempts int64 `json:"attempts"`
	Cut      int64 `json:"cut"`
	Delayed  int64 `json:"delayed"`
}

// linkRule is the active fault on one directed link.
type linkRule struct {
	cut      bool
	slow     bool
	maxDelay time.Duration
	prob     float64
}

type linkKey struct{ from, to string }

// Network is the link-aware fault fabric between named endpoints. Register
// each endpoint's URL, hand every sender a Transport tagged with its own
// name, and the network applies the directed rules currently in force:
// requests on a cut link fail with LinkError before they are sent; requests
// on a slow link are delayed (and thereby reordered against later undelayed
// requests) by a seeded per-link draw stream.
//
// Determinism: each directed link owns a private generator derived from
// (Plan.Seed, "chaos/link", from, to) with a fixed draw order per attempt
// (one gate draw, one size draw when gated in), so the k-th attempt on a
// link meets the same fate in every run; the ordered fault Log is the
// byte-comparable witness. Rule changes (Cut, Slow, Heal) do not reset the
// per-link streams.
type Network struct {
	plan Plan

	mu       sync.Mutex
	hosts    map[string]string // "host:port" -> endpoint name
	rules    map[linkKey]*linkRule
	deciders map[linkKey]*rand.Rand
	log      []LinkFault
	seq      int64
	counts   LinkCounts
}

// NewNetwork builds an empty fabric over the plan's seed.
func NewNetwork(p Plan) *Network {
	return &Network{
		plan:     p,
		hosts:    make(map[string]string),
		rules:    make(map[linkKey]*linkRule),
		deciders: make(map[linkKey]*rand.Rand),
	}
}

// Register names an endpoint by its base URL; requests addressed to its
// host:port resolve to this name. Re-registering a name (a restarted shard
// on a new port) adds the new address without forgetting the old one.
func (n *Network) Register(name, baseURL string) {
	host := baseURL
	if u, err := url.Parse(baseURL); err == nil && u.Host != "" {
		host = u.Host
	}
	n.mu.Lock()
	n.hosts[host] = name
	n.mu.Unlock()
}

// Cut drops every request from -> to until healed (a one-way link drop).
func (n *Network) Cut(from, to string) {
	n.mu.Lock()
	n.rules[linkKey{from, to}] = &linkRule{cut: true}
	n.mu.Unlock()
}

// Partition cuts every link between the two groups, both directions: the
// symmetric split.
func (n *Network) Partition(groupA, groupB []string) {
	n.mu.Lock()
	for _, a := range groupA {
		for _, b := range groupB {
			n.rules[linkKey{a, b}] = &linkRule{cut: true}
			n.rules[linkKey{b, a}] = &linkRule{cut: true}
		}
	}
	n.mu.Unlock()
}

// Slow delays a `prob` fraction of requests from -> to by a uniform draw
// from (0, maxDelay], until healed. Delayed requests arrive after later
// undelayed ones: bounded delay plus reorder.
func (n *Network) Slow(from, to string, maxDelay time.Duration, prob float64) {
	n.mu.Lock()
	n.rules[linkKey{from, to}] = &linkRule{slow: true, maxDelay: maxDelay, prob: prob}
	n.mu.Unlock()
}

// Heal clears every rule: the network is whole again. Per-link draw streams
// are preserved, so a later rule on the same link continues its schedule.
func (n *Network) Heal() {
	n.mu.Lock()
	n.rules = make(map[linkKey]*linkRule)
	n.mu.Unlock()
}

func (n *Network) decider(k linkKey) *rand.Rand {
	if rng, ok := n.deciders[k]; ok {
		return rng
	}
	rng := n.plan.rng(streamLink, dist.Label(k.from), dist.Label(k.to))
	n.deciders[k] = rng
	return rng
}

// Transport returns the round tripper a sender named `from` threads its
// requests through. next defaults to http.DefaultTransport. Requests to
// unregistered hosts pass through untouched.
func (n *Network) Transport(from string, next http.RoundTripper) http.RoundTripper {
	if next == nil {
		next = http.DefaultTransport
	}
	return &netLinkTransport{net: n, from: from, next: next}
}

type netLinkTransport struct {
	net  *Network
	from string
	next http.RoundTripper
}

// RoundTrip applies the current rule on (from, destination): fate and delay
// are drawn under the network lock, the delay itself is slept outside it.
func (t *netLinkTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	n := t.net
	n.mu.Lock()
	to := n.hosts[req.URL.Host]
	var rule *linkRule
	if to != "" {
		n.counts.Attempts++
		rule = n.rules[linkKey{t.from, to}]
	}
	var cut bool
	var delay time.Duration
	if rule != nil {
		switch {
		case rule.cut:
			cut = true
			n.seq++
			n.counts.Cut++
			n.log = append(n.log, LinkFault{Seq: n.seq, From: t.from, To: to, Kind: "cut"})
		case rule.slow:
			rng := n.decider(linkKey{t.from, to})
			if rng.Float64() < rule.prob {
				delay = time.Duration((1 - rng.Float64()) * float64(rule.maxDelay))
				n.seq++
				n.counts.Delayed++
				n.log = append(n.log, LinkFault{Seq: n.seq, From: t.from, To: to, Kind: "slow", Delay: delay})
			}
		}
	}
	n.mu.Unlock()

	if cut {
		return nil, &LinkError{From: t.from, To: to}
	}
	if delay > 0 {
		timer := time.NewTimer(delay)
		select {
		case <-req.Context().Done():
			timer.Stop()
			return nil, req.Context().Err()
		case <-timer.C:
		}
	}
	return t.next.RoundTrip(req)
}
