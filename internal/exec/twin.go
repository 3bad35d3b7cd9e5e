package exec

import (
	"bytes"
	"encoding/json"
	"fmt"

	"repro/internal/monitor"
	"repro/internal/sim"
)

// PlanRecord is one recorded MAPE iteration of a live run: the snapshot the
// dispatcher assembled from agent telemetry and the decision the controller
// returned, both as the exact JSON bytes the dispatcher produced. The stream
// of PlanRecords is the run's decision provenance and the input to the
// live-vs-sim parity certificate.
type PlanRecord struct {
	Seq      int             `json:"seq"`
	NowS     float64         `json:"now_s"`
	Snapshot json.RawMessage `json:"snapshot"`
	Decision json.RawMessage `json:"decision"`
}

// TwinVerify replays a live run's recorded snapshots through a fresh
// controller — the simulator twin — and requires the decision stream to be
// byte-identical to what the live dispatcher recorded.
//
// This is the certificate that the live plane is faithful: the twin
// controller sees only the measured snapshots (noisy wall-clock telemetry
// transported as JSON), so identical decisions prove (a) the dispatcher's
// snapshot assembly carries everything the policy reads, (b) the JSON wire
// format round-trips losslessly, and (c) the controller is deterministic in
// its observable inputs — the same properties the scenario runner's twin
// certifies for the remote-controller path.
func TwinVerify(records []PlanRecord, twin sim.Controller) error {
	if len(records) == 0 {
		return fmt.Errorf("exec: twin verify: no plan records")
	}
	for i, rec := range records {
		var snap monitor.Snapshot
		if err := json.Unmarshal(rec.Snapshot, &snap); err != nil {
			return fmt.Errorf("exec: twin verify: record %d snapshot: %w", i, err)
		}
		dec := twin.Plan(&snap)
		got, err := json.Marshal(dec)
		if err != nil {
			return fmt.Errorf("exec: twin verify: record %d decision: %w", i, err)
		}
		if !bytes.Equal(got, rec.Decision) {
			return fmt.Errorf("exec: twin verify: decision %d diverged:\n live: %s\n twin: %s",
				i, rec.Decision, got)
		}
	}
	return nil
}
