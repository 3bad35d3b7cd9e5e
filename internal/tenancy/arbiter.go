package tenancy

import (
	"fmt"
	"sort"

	"repro/internal/simtime"
)

// Arbiter policy names.
const (
	// FCFS is the no-arbiter baseline: every run sees the whole site and
	// launches are granted first-come until the physical cap is exhausted.
	// Budget feedback is disabled.
	FCFS = "fcfs"
	// FairShare splits the (budget-throttled) cap evenly across active
	// runs, earliest arrivals taking the remainder.
	FairShare = "fair"
	// Urgency apportions the (budget-throttled) cap by deadline pressure:
	// remaining work over time to deadline.
	Urgency = "urgency"
)

// Policies lists the arbiter policies.
func Policies() []string { return []string{FCFS, FairShare, Urgency} }

// ArbiterConfig parameterizes the cross-run arbiter.
type ArbiterConfig struct {
	// Policy is fcfs, fair, or urgency.
	Policy string
	// Cap is the shared physical site cap in instances (> 0).
	Cap int
	// BudgetUnits is the shared budget in charging units; 0 disables
	// budget feedback. FCFS ignores it (it is the no-arbiter baseline).
	BudgetUnits int
	// Interval is the MAPE period, the floor on time-to-deadline in the
	// urgency weight (a run past its deadline is maximally urgent, not
	// infinitely so). RunStream defaults it to the site's lag, the period
	// its runs plan at; Apportion alone to one second.
	Interval simtime.Duration
}

// lookaheadUnits is the budget-feedback horizon: the arbiter keeps enough
// budget headroom to run the granted pool for this many more charging units.
// Larger values throttle earlier.
const lookaheadUnits = 2

func (c ArbiterConfig) withDefaults() (ArbiterConfig, error) {
	switch c.Policy {
	case "":
		c.Policy = FairShare
	case FCFS, FairShare, Urgency:
	default:
		return c, fmt.Errorf("tenancy: unknown arbiter policy %q", c.Policy)
	}
	if c.Cap <= 0 {
		return c, fmt.Errorf("tenancy: arbiter needs a positive cap")
	}
	if c.Interval <= 0 {
		c.Interval = 1
	}
	return c, nil
}

// RunStatus is one active run's state as reported at its MAPE parking point.
type RunStatus struct {
	// ID is the run's stream index.
	ID int
	// Tenant is the submitting stream.
	Tenant string
	// Held counts instances currently held (pending + active, draining
	// included — they still charge).
	Held int
	// Remaining counts tasks not yet completed.
	Remaining int
	// Slots is the site's slots per instance.
	Slots int
	// ArrivedAt and Deadline are on the global clock.
	ArrivedAt simtime.Time
	Deadline  simtime.Time
	// EstWorkS estimates the remaining slot-seconds of work.
	EstWorkS float64
}

// need is the largest pool the run can actually use.
func (s RunStatus) need() int {
	slots := s.Slots
	if slots < 1 {
		slots = 1
	}
	n := (s.Remaining + slots - 1) / slots
	if n < 1 {
		n = 1
	}
	return n
}

// Grant is the arbiter's allowance for one run's next interval.
type Grant struct {
	// Target is the granted pool ceiling; a run holding more sheds the
	// surplus with boundary-timed releases (steer.Throttle).
	Target int
	// MaxLaunch bounds new launches this interval — the physical-cap
	// guard: at most Cap - sum(Held) across all runs.
	MaxLaunch int
}

// Apportion computes every parked run's grant. statuses must be the current
// parking-point statuses of all active runs; committed is the ledger's spent
// + accrued + pending charging units; heldTotal is the shared pool's total
// held count (which may exceed sum of statuses when a run is mid-interval).
// The returned map is keyed by RunStatus.ID.
//
// Budget feedback (fair/urgency with BudgetUnits > 0): the total granted
// pool shrinks to the size the remaining budget can sustain for
// lookaheadUnits more charging units — throttling every run's effective cap
// as aggregate spend projects over budget, and releasing the pressure as
// runs finish and stop accruing. One instance is always granted to the most
// urgent run so the system can never stall below the budget line.
func Apportion(cfg ArbiterConfig, statuses []RunStatus, committed, heldTotal int, now simtime.Time) map[int]Grant {
	cfg, err := cfg.withDefaults()
	if err != nil {
		panic(err)
	}
	grants := make(map[int]Grant, len(statuses))
	if len(statuses) == 0 {
		return grants
	}
	sorted := append([]RunStatus(nil), statuses...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].ID < sorted[j].ID })

	launchRoom := cfg.Cap - heldTotal
	if launchRoom < 0 {
		launchRoom = 0
	}

	if cfg.Policy == FCFS {
		for _, s := range sorted {
			grants[s.ID] = Grant{Target: cfg.Cap, MaxLaunch: launchRoom}
		}
		return grants
	}

	capTotal := cfg.Cap
	if cfg.BudgetUnits > 0 {
		headroom := cfg.BudgetUnits - committed
		allowed := 0
		if headroom > 0 {
			allowed = headroom / lookaheadUnits
		}
		if allowed < 1 {
			// Austerity floor: one instance for the most urgent run keeps
			// every admitted workflow finishing.
			allowed = 1
		}
		if capTotal > allowed {
			capTotal = allowed
		}
	}

	targets := make(map[int]int, len(sorted))
	switch cfg.Policy {
	case FairShare:
		apportionFair(sorted, capTotal, targets)
	case Urgency:
		apportionUrgency(sorted, capTotal, now, cfg.Interval, targets)
	}
	for _, s := range sorted {
		target := targets[s.ID]
		maxLaunch := target - s.Held
		if maxLaunch > launchRoom {
			maxLaunch = launchRoom
		}
		if maxLaunch < 0 {
			maxLaunch = 0
		}
		grants[s.ID] = Grant{Target: target, MaxLaunch: maxLaunch}
	}
	return grants
}

// apportionFair grants equal shares of capTotal, remainder by arrival order,
// each run capped at its need with the leftover waterfalled onward.
func apportionFair(sorted []RunStatus, capTotal int, targets map[int]int) {
	n := len(sorted)
	order := append([]RunStatus(nil), sorted...)
	sort.Slice(order, func(i, j int) bool {
		if order[i].ArrivedAt != order[j].ArrivedAt {
			return order[i].ArrivedAt < order[j].ArrivedAt
		}
		return order[i].ID < order[j].ID
	})
	share := capTotal / n
	rem := capTotal % n
	spare := 0
	for i, s := range order {
		t := share
		if i < rem {
			t++
		}
		if need := s.need(); t > need {
			spare += t - need
			t = need
		}
		targets[s.ID] = t
	}
	// Waterfall the spare capacity to runs still below their need, in
	// arrival order.
	for spare > 0 {
		gave := false
		for _, s := range order {
			if spare == 0 {
				break
			}
			if targets[s.ID] < s.need() {
				targets[s.ID]++
				spare--
				gave = true
			}
		}
		if !gave {
			break
		}
	}
}

// apportionUrgency grants by deadline pressure, greedily: runs are ranked
// by weight = remaining work over time to deadline (floored at one
// interval), and each takes its full need before the next gets anything —
// an EDF-style concentration that lets urgent runs finish fast instead of
// time-slicing the site into uniform crawl. Starvation is self-limiting:
// a parked run's weight grows as its deadline approaches, so every run
// eventually ranks first.
func apportionUrgency(sorted []RunStatus, capTotal int, now simtime.Time, interval simtime.Duration, targets map[int]int) {
	type entry struct {
		s      RunStatus
		weight float64
	}
	entries := make([]entry, len(sorted))
	for i, s := range sorted {
		left := float64(s.Deadline - now)
		if left < float64(interval) {
			left = float64(interval)
		}
		w := s.EstWorkS / left
		if w <= 0 {
			w = 1e-9
		}
		entries[i] = entry{s: s, weight: w}
	}
	// Most urgent first; ties to the earlier deadline, then the lower ID.
	sort.Slice(entries, func(i, j int) bool {
		if entries[i].weight != entries[j].weight {
			return entries[i].weight > entries[j].weight
		}
		if entries[i].s.Deadline != entries[j].s.Deadline {
			return entries[i].s.Deadline < entries[j].s.Deadline
		}
		return entries[i].s.ID < entries[j].s.ID
	})
	granted := 0
	for _, e := range entries {
		t := e.s.need()
		if granted+t > capTotal {
			t = capTotal - granted
		}
		targets[e.s.ID] = t
		granted += t
	}
}
