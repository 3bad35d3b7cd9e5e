package service

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"repro/internal/dagio"
	"repro/internal/monitor"
	"repro/internal/workloads"
)

// TestConcurrentSessionsNoBufferAliasing hammers the pooled encode/decode
// path from many sessions at once and asserts no response leaks across the
// pool: each goroutine keeps every PlanResponse it has received and
// re-verifies the whole history after each new call, so a pooled buffer (or
// parser scratch) reused by another session's request would surface as a
// mutated SessionID or a seq/iteration that jumped sessions. Run under
// -race this also certifies the pools themselves.
func TestConcurrentSessionsNoBufferAliasing(t *testing.T) {
	_, client := newTestServer(t, Config{})

	const sessions = 8
	const plans = 25

	var wg sync.WaitGroup
	errs := make(chan error, sessions)
	for g := 0; g < sessions; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ctx := context.Background()
			wf := workloads.Linear(6+g, 45)
			info, err := client.CreateSession(ctx, CreateSessionRequest{Workflow: dagio.Encode(wf)})
			if err != nil {
				errs <- fmt.Errorf("session %d: create: %w", g, err)
				return
			}
			defer client.DeleteSession(ctx, info.ID)

			history := make([]*PlanResponse, 0, plans)
			snap := &monitor.Snapshot{
				Interval:         30,
				ChargingUnit:     600,
				LagTime:          30,
				SlotsPerInstance: 2,
				Tasks:            make([]monitor.TaskRecord, wf.NumTasks()),
			}
			for _, tk := range wf.Tasks {
				snap.Tasks[tk.ID] = monitor.TaskRecord{ID: tk.ID, Stage: tk.Stage, InputSize: tk.InputSize}
			}
			for seq := int64(1); seq <= plans; seq++ {
				snap.Now += snap.Interval
				resp, err := client.Plan(ctx, info.ID, seq, snap)
				if err != nil {
					errs <- fmt.Errorf("session %d: plan %d: %w", g, seq, err)
					return
				}
				history = append(history, resp)
				for i, h := range history {
					if h.SessionID != info.ID {
						errs <- fmt.Errorf("session %d: response %d carries session %q after %d more plans", g, i+1, h.SessionID, int(seq)-i-1)
						return
					}
					if h.Seq != int64(i+1) {
						errs <- fmt.Errorf("session %d: response %d now reports seq %d", g, i+1, h.Seq)
						return
					}
				}
			}
			errs <- nil
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}
