package scenario

import (
	"testing"

	"repro/internal/leakcheck"
)

// TestMain fails the binary if any goroutine of the harness or of the system
// it hosts (session runner, hosted daemon, router heartbeat, fault driver,
// ...) outlives a passing test run.
func TestMain(m *testing.M) { leakcheck.Main(m) }
