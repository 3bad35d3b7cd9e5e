package cluster

import (
	"testing"

	"repro/internal/leakcheck"
)

// TestMain fails the binary if any cluster goroutine (heartbeat prober,
// confirmation relay, failover or drain worker, ...)
// outlives a passing test run.
func TestMain(m *testing.M) { leakcheck.Main(m) }
