package cloud

import (
	"math"
	"testing"
	"time"
)

func TestScaledClockRejectsNonPositiveScale(t *testing.T) {
	for _, scale := range []float64{0, -1} {
		if _, err := NewScaledClock(scale, nil); err == nil {
			t.Fatalf("scale %v: want error", scale)
		}
	}
}

func TestScaledClockMapsWallToSim(t *testing.T) {
	wall := time.Unix(1000, 0)
	now := func() time.Time { return wall }
	c, err := NewScaledClock(100, now)
	if err != nil {
		t.Fatal(err)
	}
	if c.Now() != 0 {
		t.Fatalf("before Start: now=%v", c.Now())
	}

	c.Start()
	if c.Now() != 0 {
		t.Fatalf("at Start: now=%v", c.Now())
	}
	wall = wall.Add(250 * time.Millisecond) // 0.25 wall s × 100 = 25 sim s
	if got := c.Now(); math.Abs(got-25) > 1e-9 {
		t.Fatalf("Now = %v, want 25", got)
	}
	// Start again is a no-op: the origin must not move.
	c.Start()
	if got := c.Now(); math.Abs(got-25) > 1e-9 {
		t.Fatalf("Now after re-Start = %v, want 25", got)
	}

	if got := c.WallUntil(125); got != time.Second {
		t.Fatalf("WallUntil(125) = %v, want 1s", got)
	}
	if got := c.WallUntil(10); got != 0 {
		t.Fatalf("WallUntil(past) = %v, want 0", got)
	}
	if got := c.WallDuration(50); got != 500*time.Millisecond {
		t.Fatalf("WallDuration(50) = %v, want 500ms", got)
	}
	if got := c.WallDuration(-1); got != 0 {
		t.Fatalf("WallDuration(-1) = %v, want 0", got)
	}
}
