package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// aaResult is the last line of a run's standard output.
type aaResult struct {
	Correct   bool  `json:"correct"`
	Attempted int64 `json:"attempted"`
	Failed    int64 `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

// aaRun runs one workload in a process of its own — resident memory and heap
// state must not leak from one run into the next — and parses its result.
func aaRun(self string, cfg runConfig, workload string, seed int64) (*aaResult, error) {
	cmd := exec.Command(self,
		"-workload", workload, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(cfg.Window.Seconds(), 'f', -1, 64),
		"-trace", "0", "-dir", cfg.Dir, "-out", cfg.OutDir)
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s seed %d: %w", workload, seed, err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res aaResult
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return nil, fmt.Errorf("%s seed %d: last line is not a result: %w", workload, seed, err)
	}
	return &res, nil
}

// worse returns by what share of a the value b is worse, given the metric's
// direction; negative when b is better.
func worse(d metricDef, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if d.Better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// runAA is the A/A check: every workload twice on one seed and once on a
// held-out seed, same code, one process per run. Two runs of the same code
// must agree within each metric's own bound; a benchmark that cannot tell
// itself from itself cannot gate anything. It prints a Markdown report and
// returns the exit code: 1 when a gated metric of the same-seed pair
// disagrees or any operation failed.
func runAA(cfg runConfig) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	heldOut := cfg.Seed + 7919
	fmt.Printf("# A/A check\n\n")
	fmt.Printf("Every workload twice on seed %d (A, B) and once on the held-out seed %d (H), %v timed window, one process per run. ", cfg.Seed, heldOut, cfg.Window)
	fmt.Printf("`B vs A` and `H vs A` are the share by which the run is worse than A (negative: better). A pair disagrees when it differs, either way, by more than the metric's bound. Only `B vs A` decides the verdict; `H vs A` adds the input draw to the machine's noise and is shown for scale.\n\n")
	fmt.Printf("| workload | metric | A | B | H | B vs A | H vs A | bound | verdict |\n|---|---|---|---|---|---|---|---|---|\n")
	bad := 0
	for _, w := range workloadOrder {
		var runs []*aaResult
		for _, seed := range []int64{cfg.Seed, cfg.Seed, heldOut} {
			res, err := aaRun(self, cfg, w, seed)
			if err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				return 1
			}
			runs = append(runs, res)
		}
		a, b, h := runs[0], runs[1], runs[2]
		for _, d := range endToEnd {
			av, bv, hv := a.Metrics[d.Name].Value, b.Metrics[d.Name].Value, h.Metrics[d.Name].Value
			db, dh := worse(d, av, bv), worse(d, av, hv)
			verdict := "agree"
			if db > d.Bound || -db > d.Bound {
				verdict = "DISAGREE"
				bad++
			}
			fmt.Printf("| %s | %s (%s) | %.5g | %.5g | %.5g | %+.1f%% | %+.1f%% | %.0f%% | %s |\n",
				w, d.Name, d.Unit, av, bv, hv, 100*db, 100*dh, 100*d.Bound, verdict)
		}
		failed := a.Failed + b.Failed + h.Failed
		verdict := "agree"
		if failed > 0 {
			verdict = "FAILED OPERATIONS"
			bad++
		}
		fmt.Printf("| %s | failed / attempted | %d / %d | %d / %d | %d / %d | | | 0 | %s |\n",
			w, a.Failed, a.Attempted, b.Failed, b.Attempted, h.Failed, h.Attempted, verdict)
	}
	fmt.Printf("\n%d disagreement(s).\n", bad)
	if bad > 0 {
		return 1
	}
	return 0
}
