package tenancy

import (
	"testing"

	"repro/internal/leakcheck"
)

// TestMain fails the binary if a run goroutine of the multi-run coordinator
// outlives a passing test run.
func TestMain(m *testing.M) { leakcheck.Main(m) }
