package service

import (
	"testing"

	"repro/internal/leakcheck"
)

// TestMain fails the binary if any service goroutine (janitor, live-run
// reclaimer, ...) outlives a passing test run.
func TestMain(m *testing.M) { leakcheck.Main(m) }
