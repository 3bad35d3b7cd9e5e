package tenancy

import (
	"testing"

	"repro/internal/cloud"
	"repro/internal/simtime"
)

func baseArbiterConfig(policy string, budget int) ArbiterConfig {
	return ArbiterConfig{Policy: policy, Cap: 6, BudgetUnits: budget, Interval: 180}
}

func TestArbiterConfigValidation(t *testing.T) {
	if _, err := (ArbiterConfig{Policy: "lifo", Cap: 6}).withDefaults(); err == nil {
		t.Error("unknown policy accepted")
	}
	if _, err := (ArbiterConfig{Policy: FCFS}).withDefaults(); err == nil {
		t.Error("zero cap accepted")
	}
	c, err := (ArbiterConfig{Cap: 6}).withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	if c.Policy != FairShare {
		t.Errorf("defaults: got policy %q", c.Policy)
	}
}

// FCFS is the no-arbiter baseline: everyone sees the full site, launches are
// first-come bounded only by the physical room left.
func TestApportionFCFS(t *testing.T) {
	statuses := []RunStatus{
		{ID: 0, Held: 3, Remaining: 40, Slots: 2},
		{ID: 1, Held: 1, Remaining: 40, Slots: 2},
	}
	grants := Apportion(baseArbiterConfig(FCFS, 50), statuses, 10, 4, 0)
	for id, g := range grants {
		if g.Target != 6 {
			t.Errorf("run %d target %d, want full cap 6", id, g.Target)
		}
		if g.MaxLaunch != 2 {
			t.Errorf("run %d maxLaunch %d, want room 2", id, g.MaxLaunch)
		}
	}
}

// Fair share splits the cap evenly, caps each run at its need, and waterfalls
// the spare to runs that can still use it.
func TestApportionFairShare(t *testing.T) {
	statuses := []RunStatus{
		{ID: 0, Held: 1, Remaining: 2, Slots: 2, ArrivedAt: 0},  // need 1
		{ID: 1, Held: 1, Remaining: 40, Slots: 2, ArrivedAt: 1}, // need 20
		{ID: 2, Held: 1, Remaining: 40, Slots: 2, ArrivedAt: 2}, // need 20
	}
	grants := Apportion(baseArbiterConfig(FairShare, 0), statuses, 0, 3, 0)
	if got := grants[0].Target; got != 1 {
		t.Errorf("run 0 target %d, want need-capped 1", got)
	}
	// 6 = 1 + 3 + 2: run 1 (earlier arrival) takes the spare first.
	if got := grants[1].Target; got != 3 {
		t.Errorf("run 1 target %d, want 3", got)
	}
	if got := grants[2].Target; got != 2 {
		t.Errorf("run 2 target %d, want 2", got)
	}
	total := 0
	for _, g := range grants {
		total += g.Target
	}
	if total > 6 {
		t.Errorf("granted %d instances, cap is 6", total)
	}
}

// Urgency concentrates: the run closest to its deadline takes its full need
// before less urgent runs get anything.
func TestApportionUrgencyEDF(t *testing.T) {
	statuses := []RunStatus{
		{ID: 0, Remaining: 8, Slots: 2, Deadline: 10000, EstWorkS: 800},
		{ID: 1, Remaining: 8, Slots: 2, Deadline: 600, EstWorkS: 800}, // urgent
	}
	grants := Apportion(baseArbiterConfig(Urgency, 0), statuses, 0, 0, 0)
	if got := grants[1].Target; got != 4 {
		t.Errorf("urgent run target %d, want full need 4", got)
	}
	if got := grants[0].Target; got != 2 {
		t.Errorf("relaxed run target %d, want leftover 2", got)
	}
}

// Budget feedback shrinks the total grant to what the remaining budget can
// sustain for lookaheadUnits more charging units, with an austerity floor of
// one instance.
func TestApportionBudgetFeedback(t *testing.T) {
	statuses := []RunStatus{
		{ID: 0, Held: 3, Remaining: 40, Slots: 2, Deadline: 500, EstWorkS: 4000},
		{ID: 1, Held: 3, Remaining: 40, Slots: 2, Deadline: 900, EstWorkS: 4000},
	}
	// Plenty of headroom: the full cap is granted.
	loose := Apportion(baseArbiterConfig(Urgency, 100), statuses, 10, 6, 0)
	if total := loose[0].Target + loose[1].Target; total != 6 {
		t.Errorf("loose budget granted %d, want full cap 6", total)
	}
	// 44 committed of 50: headroom 6, lookahead 2 -> capTotal 3.
	tight := Apportion(baseArbiterConfig(Urgency, 50), statuses, 44, 6, 0)
	if total := tight[0].Target + tight[1].Target; total != 3 {
		t.Errorf("tight budget granted %d, want throttled 3", total)
	}
	// Over budget entirely: the austerity floor still grants one instance.
	broke := Apportion(baseArbiterConfig(Urgency, 50), statuses, 60, 6, 0)
	if total := broke[0].Target + broke[1].Target; total != 1 {
		t.Errorf("exhausted budget granted %d, want austerity floor 1", total)
	}
	if broke[0].Target != 1 {
		t.Errorf("austerity instance went to run %d, want the most urgent (0)", 1)
	}
	// FCFS ignores the budget even when configured.
	fcfs := Apportion(baseArbiterConfig(FCFS, 50), statuses, 60, 6, 0)
	if fcfs[0].Target != 6 || fcfs[1].Target != 6 {
		t.Error("fcfs applied budget feedback; it is the no-arbiter baseline")
	}
}

// MaxLaunch never exceeds the physical room left on the site.
func TestApportionLaunchRoom(t *testing.T) {
	statuses := []RunStatus{{ID: 0, Held: 0, Remaining: 40, Slots: 2, Deadline: 100, EstWorkS: 4000}}
	grants := Apportion(baseArbiterConfig(Urgency, 0), statuses, 0, 5, 0)
	if g := grants[0]; g.MaxLaunch != 1 {
		t.Errorf("maxLaunch %d, want 1 (cap 6, 5 held site-wide)", g.MaxLaunch)
	}
	full := Apportion(baseArbiterConfig(Urgency, 0), statuses, 0, 6, 0)
	if g := full[0]; g.MaxLaunch != 0 {
		t.Errorf("maxLaunch %d on a full site, want 0", g.MaxLaunch)
	}
}

func TestRunStatusNeed(t *testing.T) {
	if got := (RunStatus{Remaining: 5, Slots: 2}).need(); got != 3 {
		t.Errorf("need(5 tasks, 2 slots) = %d, want 3", got)
	}
	if got := (RunStatus{Remaining: 0, Slots: 2}).need(); got != 1 {
		t.Errorf("need(0 tasks) = %d, want floor 1", got)
	}
}

// The urgency floor under RunStream is one MAPE period — the site's lag, the
// period every run plans at — when the arbiter sets none. Run 0 is ten seconds
// past its deadline with little work left; run 1 has nine times the work due
// in thirty seconds. Over one lag run 1 is the more urgent and takes the one
// instance; over one second run 0 would.
func TestRunStreamUrgencyFloorIsOneLag(t *testing.T) {
	cfg := MultiConfig{
		Cloud:   cloud.Config{SlotsPerInstance: 2, LagTime: 180, ChargingUnit: 900},
		Arbiter: ArbiterConfig{Policy: Urgency, Cap: 1},
	}
	acfg, err := cfg.arbiter()
	if err != nil {
		t.Fatal(err)
	}
	if acfg.Interval != 180 {
		t.Errorf("interval %v, want the lag 180", acfg.Interval)
	}
	now := simtime.Time(1000)
	statuses := []RunStatus{
		{ID: 0, Remaining: 2, Slots: 2, Deadline: 990, EstWorkS: 100},
		{ID: 1, Remaining: 2, Slots: 2, Deadline: 1030, EstWorkS: 900},
	}
	grants := Apportion(acfg, statuses, 0, 0, now)
	if grants[0].Target != 0 || grants[1].Target != 1 {
		t.Errorf("targets %d and %d, want 0 and 1", grants[0].Target, grants[1].Target)
	}
	// An interval the arbiter does set is kept.
	cfg.Arbiter.Interval = 1
	if acfg, _ := cfg.arbiter(); acfg.Interval != 1 {
		t.Errorf("interval %v, want the configured 1", acfg.Interval)
	}
}
