package service

import (
	"encoding/json"

	"repro/internal/sim"
)

// LiveControllerFactory adapts the service's policy registry to the live
// execution plane's controller factory: the opaque tuning blob of a live-run
// create request is this package's ControllerSpec.
func LiveControllerFactory(policy string, spec json.RawMessage) (sim.Controller, error) {
	var cs *ControllerSpec
	if len(spec) > 0 {
		cs = new(ControllerSpec)
		if err := json.Unmarshal(spec, cs); err != nil {
			return nil, err
		}
	}
	return NewPolicyController(policy, cs)
}
