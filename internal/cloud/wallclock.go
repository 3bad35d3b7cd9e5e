package cloud

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/simtime"
)

// ScaledClock maps the wall clock onto simulated seconds: the live execution
// plane's counterpart to the discrete-event engine's virtual clock. One wall
// second equals Scale simulated seconds, so an Epigenomics run whose billing
// is defined in 15-minute charging units can execute against real agents in
// seconds while the Site still meters whole units.
//
// The clock starts at simulated time zero when Start is called; Now before
// Start is zero. It is safe for concurrent use.
type ScaledClock struct {
	scale float64
	now   func() time.Time

	mu      sync.Mutex
	origin  time.Time
	started bool
}

// NewScaledClock returns a stopped clock running at scale simulated seconds
// per wall second. now overrides the wall-clock source (tests); nil uses
// time.Now.
func NewScaledClock(scale float64, now func() time.Time) (*ScaledClock, error) {
	if scale <= 0 {
		return nil, fmt.Errorf("cloud: non-positive clock scale %v", scale)
	}
	if now == nil {
		now = time.Now
	}
	return &ScaledClock{scale: scale, now: now}, nil
}

// Start anchors simulated time zero at the current wall instant. Starting an
// already started clock is a no-op.
func (c *ScaledClock) Start() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.started {
		c.origin = c.now()
		c.started = true
	}
}

// ResumeAt restarts the clock so the current wall instant reads as simulated
// time t. Crash recovery uses it to continue a journaled run from the last
// recorded simulated timestamp: the downtime simply does not exist on the
// simulated axis, which keeps replayed decision streams aligned with the
// original tick grid.
func (c *ScaledClock) ResumeAt(t simtime.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.origin = c.now().Add(-time.Duration(t / c.scale * float64(time.Second)))
	c.started = true
}

// Now returns the current simulated time (zero before Start).
func (c *ScaledClock) Now() simtime.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.started {
		return 0
	}
	return c.now().Sub(c.origin).Seconds() * c.scale
}

// WallUntil returns the wall-clock duration from now until simulated time t
// (zero when t has already passed). It is how the live dispatcher arms
// timers for future simulated instants: activations, charging boundaries,
// control ticks.
func (c *ScaledClock) WallUntil(t simtime.Time) time.Duration {
	d := time.Duration((t - c.Now()) / c.scale * float64(time.Second))
	if d < 0 {
		return 0
	}
	return d
}

// WallDuration converts a simulated duration to its wall-clock equivalent.
func (c *ScaledClock) WallDuration(d simtime.Duration) time.Duration {
	if d < 0 {
		return 0
	}
	return time.Duration(d / c.scale * float64(time.Second))
}
