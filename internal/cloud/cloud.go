// Package cloud simulates the IaaS substrate WIRE steers: a single cloud
// site that rents identically provisioned worker instances (§III-A).
//
// The model captures exactly the properties the steering policy depends on:
//
//   - each instance has l slots for concurrent tasks;
//   - launching (and, symmetrically, any pool change) takes effect after the
//     lag time t — the maximum delay to institute a change;
//   - instances are billed per whole charging unit u from the moment they
//     become usable;
//   - the site caps the number of concurrently held instances (ExoGENI
//     sites provided at most 12, §IV-B).
package cloud

import (
	"errors"
	"fmt"

	"repro/internal/simtime"
)

// InstanceID identifies an instance within one site for the lifetime of a
// run. IDs are never reused.
type InstanceID int

// State is the lifecycle state of an instance.
type State int

// Instance lifecycle states.
const (
	// Pending: launch requested, not yet usable (within the lag window).
	Pending State = iota
	// Active: usable and accruing charging units.
	Active
	// Terminated: released; its final cost is fixed.
	Terminated
)

// String implements fmt.Stringer.
func (s State) String() string {
	switch s {
	case Pending:
		return "pending"
	case Active:
		return "active"
	case Terminated:
		return "terminated"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// MarshalJSON encodes the state by name so the monitoring wire format does
// not depend on the ordering of the state constants.
func (s State) MarshalJSON() ([]byte, error) {
	switch s {
	case Pending, Active, Terminated:
		return []byte(`"` + s.String() + `"`), nil
	default:
		return nil, fmt.Errorf("cloud: cannot marshal unknown state %d", int(s))
	}
}

// UnmarshalJSON decodes a state name (or a legacy integer).
func (s *State) UnmarshalJSON(b []byte) error {
	switch string(b) {
	case `"pending"`, "0":
		*s = Pending
	case `"active"`, "1":
		*s = Active
	case `"terminated"`, "2":
		*s = Terminated
	default:
		return fmt.Errorf("cloud: unknown state %s", b)
	}
	return nil
}

// Config describes a cloud site.
type Config struct {
	// SlotsPerInstance is l, the number of concurrent tasks per worker
	// (4 for the XOXLarge instances in §IV-B).
	SlotsPerInstance int
	// LagTime is t, the delay between ordering a launch and the instance
	// becoming usable (~180 s on ExoGENI).
	LagTime simtime.Duration
	// ChargingUnit is u, the billing quantum.
	ChargingUnit simtime.Duration
	// MaxInstances caps the pool (12 in the experiments); 0 = unbounded.
	MaxInstances int
	// ChargeFromRequest bills from the launch request instead of from
	// activation. Off by default; exposed for ablation studies.
	ChargeFromRequest bool
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.SlotsPerInstance <= 0 {
		return fmt.Errorf("cloud: SlotsPerInstance must be positive, got %d", c.SlotsPerInstance)
	}
	if c.LagTime < 0 {
		return fmt.Errorf("cloud: negative LagTime %v", c.LagTime)
	}
	if c.ChargingUnit <= 0 {
		return fmt.Errorf("cloud: ChargingUnit must be positive, got %v", c.ChargingUnit)
	}
	if c.MaxInstances < 0 {
		return fmt.Errorf("cloud: negative MaxInstances %d", c.MaxInstances)
	}
	return nil
}

// Instance is one rented worker.
type Instance struct {
	ID          InstanceID
	Slots       int
	RequestedAt simtime.Time
	// ActiveAt is when the instance becomes usable (RequestedAt + lag).
	ActiveAt simtime.Time
	// TerminatedAt is meaningful only in the Terminated state.
	TerminatedAt simtime.Time
	State        State

	// BusySlotSeconds is accumulated by the execution simulator: total
	// slot-seconds spent running tasks. The cloud site itself never
	// writes it; it feeds the utilization metrics (§IV-E).
	BusySlotSeconds float64

	chargeOrigin simtime.Time
	unit         simtime.Duration
}

// ChargeOrigin returns the instant billing started.
func (in *Instance) ChargeOrigin() simtime.Time { return in.chargeOrigin }

// NextChargeBoundary returns the first charging boundary strictly after now.
func (in *Instance) NextChargeBoundary(now simtime.Time) simtime.Time {
	return simtime.NextBoundary(in.chargeOrigin, in.unit, now)
}

// TimeToNextCharge returns r_j: how long after now the instance's next
// charging unit begins (§III-D, Algorithm 2 input).
func (in *Instance) TimeToNextCharge(now simtime.Time) simtime.Duration {
	return in.NextChargeBoundary(now) - now
}

// UnitsChargedAt returns the charging units billed if the instance is (or
// was) held until t. Terminated instances ignore t beyond their termination.
func (in *Instance) UnitsChargedAt(t simtime.Time) int {
	end := t
	if in.State == Terminated && in.TerminatedAt < end {
		end = in.TerminatedAt
	}
	return simtime.UnitsCharged(in.chargeOrigin, end, in.unit)
}

// UsableAt reports whether the instance can run tasks at time t.
func (in *Instance) UsableAt(t simtime.Time) bool {
	if in.State == Terminated {
		return simtime.AtOrAfter(t, in.ActiveAt) && simtime.Before(t, in.TerminatedAt)
	}
	return simtime.AtOrAfter(t, in.ActiveAt)
}

// Site is a simulated cloud site. It is not safe for concurrent use; the
// discrete-event simulators drive it from a single goroutine.
type Site struct {
	cfg       Config
	instances []*Instance
	held      int // pending + active
	launched  int
}

// NewSite returns a site with the given configuration.
func NewSite(cfg Config) (*Site, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Site{cfg: cfg}, nil
}

// ErrSiteFull is returned by Launch when the site cap is reached.
var ErrSiteFull = errors.New("cloud: site capacity reached")

// Launch requests a new instance at time now. The instance becomes usable at
// now + LagTime. It returns ErrSiteFull when the cap would be exceeded.
func (s *Site) Launch(now simtime.Time) (*Instance, error) {
	if s.Full() {
		return nil, ErrSiteFull
	}
	in := &Instance{
		ID:          InstanceID(s.launched),
		Slots:       s.cfg.SlotsPerInstance,
		RequestedAt: now,
		ActiveAt:    now + s.cfg.LagTime,
		State:       Pending,
		unit:        s.cfg.ChargingUnit,
	}
	if s.cfg.ChargeFromRequest {
		in.chargeOrigin = now
	} else {
		in.chargeOrigin = in.ActiveAt
	}
	s.launched++
	s.held++
	s.instances = append(s.instances, in)
	return in, nil
}

// Postpone delays a pending instance's activation to a later instant — a
// straggler launch (§II-B: instantiation lags vary). Billing follows the
// activation unless the site charges from the request.
func (s *Site) Postpone(in *Instance, to simtime.Time) error {
	if in.State != Pending {
		return fmt.Errorf("cloud: postpone instance %d in state %v", in.ID, in.State)
	}
	if simtime.Before(to, in.ActiveAt) {
		return fmt.Errorf("cloud: postpone instance %d to %v before nominal activation %v", in.ID, to, in.ActiveAt)
	}
	in.ActiveAt = to
	if !s.cfg.ChargeFromRequest {
		in.chargeOrigin = to
	}
	return nil
}

// Activate marks a pending instance usable. The execution simulator calls it
// from the activation event at in.ActiveAt.
func (s *Site) Activate(in *Instance, now simtime.Time) error {
	if in.State != Pending {
		return fmt.Errorf("cloud: activate instance %d in state %v", in.ID, in.State)
	}
	if simtime.Before(now, in.ActiveAt) {
		return fmt.Errorf("cloud: instance %d activated at %v before ready time %v", in.ID, now, in.ActiveAt)
	}
	in.State = Active
	return nil
}

// Terminate releases an instance at time at. Terminating a pending instance
// cancels it (no charge if it never became usable). Terminating an already
// terminated instance is an error.
func (s *Site) Terminate(in *Instance, at simtime.Time) error {
	switch in.State {
	case Terminated:
		return fmt.Errorf("cloud: instance %d already terminated", in.ID)
	case Pending:
		// Cancel before activation: record a zero-length life.
		in.TerminatedAt = in.chargeOrigin
	case Active:
		if simtime.Before(at, in.ActiveAt) {
			return fmt.Errorf("cloud: instance %d terminated at %v before active at %v", in.ID, at, in.ActiveAt)
		}
		in.TerminatedAt = at
	}
	in.State = Terminated
	s.held--
	return nil
}

// Instances returns every instance ever launched, in launch order. Callers
// must treat the slice as read-only.
func (s *Site) Instances() []*Instance { return s.instances }

// Full reports whether the site cap is reached: Launch would return
// ErrSiteFull.
func (s *Site) Full() bool {
	return s.cfg.MaxInstances > 0 && s.held >= s.cfg.MaxInstances
}

// Held returns the number of instances currently held (pending + active):
// the committed pool size m the steering policy compares against.
func (s *Site) Held() int { return s.held }

// TotalUnitsCharged returns the total charging units billed across all
// instances, counting live instances as held until end. This is the paper's
// resource-cost metric (§IV-E, Figure 5).
func (s *Site) TotalUnitsCharged(end simtime.Time) int {
	total := 0
	for _, in := range s.instances {
		total += in.UnitsChargedAt(end)
	}
	return total
}

// TotalChargedSeconds returns the billed wall-seconds (units × u).
func (s *Site) TotalChargedSeconds(end simtime.Time) float64 {
	return float64(s.TotalUnitsCharged(end)) * s.cfg.ChargingUnit
}

// TotalBusySlotSeconds sums the busy slot-seconds accumulated by the
// execution simulator across all instances.
func (s *Site) TotalBusySlotSeconds() float64 {
	total := 0.0
	for _, in := range s.instances {
		total += in.BusySlotSeconds
	}
	return total
}

// Utilization returns busy slot-seconds divided by paid slot-seconds at end:
// the fraction of purchased capacity that ran tasks.
func (s *Site) Utilization(end simtime.Time) float64 {
	paid := s.TotalChargedSeconds(end) * float64(s.cfg.SlotsPerInstance)
	if paid <= 0 {
		return 0
	}
	return s.TotalBusySlotSeconds() / paid
}
