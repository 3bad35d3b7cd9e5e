package audit

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/workloads"
)

// SelfTestResult is the mutation-coverage verdict: every seeded corruption
// must be flagged by the check named for it, and the uncorrupted baseline
// must audit clean. An auditor that misses a seeded corruption is worse than
// no auditor — it certifies broken journals.
type SelfTestResult struct {
	Cases  int      `json:"cases"`
	Caught int      `json:"caught"`
	Missed []string `json:"missed,omitempty"`
}

// Ok reports full mutation coverage.
func (r *SelfTestResult) Ok() bool { return len(r.Missed) == 0 }

// selfTestCase seeds one corruption into a fresh journal corpus and names
// the check that must flag it.
type selfTestCase struct {
	name  string
	check string
	seed  func(dir string) error
	cfg   func(cfg *Config)
}

// wal writes a session WAL from raw JSONL lines.
func stWAL(dir, session string, lines ...string) error {
	return os.WriteFile(filepath.Join(dir, session+".wal"), []byte(strings.Join(lines, "\n")+"\n"), 0o644)
}

// stFence fences a session's WAL at an epoch.
func stFence(dir, session string, epoch int64) error {
	body := fmt.Sprintf(`{"epoch":%d,"from":"selftest"}`, epoch)
	return os.WriteFile(filepath.Join(dir, session+".wal.fence"), []byte(body), 0o644)
}

func stCreate(id, tenant string) string {
	return fmt.Sprintf(`{"type":"create","id":%q,"policy":"wire","tenant":%q,"created_at":"2026-01-01T00:00:00Z"}`, id, tenant)
}

// stKeyedCreate is a create record for a catalogue workflow: key, seed and
// the digest its generation must hash to.
func stKeyedCreate(id, tenant, key string, seed int64, digest string) string {
	return fmt.Sprintf(`{"type":"create","id":%q,"policy":"wire","workflow_key":%q,"workflow_seed":%d,"workflow_digest":%q,"tenant":%q,"created_at":"2026-01-01T00:00:00Z"}`,
		id, key, seed, digest, tenant)
}

// tpch6Digest is the digest of the tpch6-s workflow at seed 2.
func tpch6Digest() string {
	wf, _, err := workloads.Resolve(nil, "tpch6-s", 2)
	if err != nil {
		panic(err)
	}
	return workloads.Digest(wf)
}

// stPlan builds a plan record with n instances on a 30s interval and a
// 3600s charging unit; marker differentiates response bytes.
func stPlan(seq int64, n int, marker string) string {
	insts := make([]string, n)
	for i := range insts {
		insts[i] = fmt.Sprintf(`{"id":%d}`, i)
	}
	return fmt.Sprintf(`{"type":"plan","seq":%d,"snapshot":{"instances":[%s],"interval_s":30,"charging_unit_s":3600,"now_s":%d},"response":{"seq":%d,"decision":{"launch":%d,"note":%q}}}`,
		seq, strings.Join(insts, ","), seq*30, seq, n, marker)
}

// stDelta is stPlan with the snapshot in delta form: one changed task record.
func stDelta(seq int64, n int, marker string) string {
	return strings.Replace(stPlan(seq, n, marker), `"snapshot":{`, fmt.Sprintf(`"snapshot":{"delta":true,"tasks":[{"id":%d,"stage":0,"state":"running"}],`, seq), 1)
}

func stLive(dir string, lines ...string) error {
	return os.WriteFile(filepath.Join(dir, "live-selftest.jsonl"), []byte(strings.Join(lines, "\n")+"\n"), 0o644)
}

func stLease(seq int64, kind string, lease int64) string {
	return fmt.Sprintf(`{"seq":%d,"wall_ms":%d,"now_s":%d,"kind":%q,"lease":%d}`, seq, seq, seq, kind, lease)
}

// cleanCorpus writes an invariant-respecting baseline: two sessions (one
// handed off with a benign crash-window duplicate, one created by catalogue
// key), one healthy lease history, and a tenant inside budget.
func cleanCorpus(a, b string) error {
	if err := stWAL(a, "s-handed",
		stCreate("s-handed", "acme"),
		stPlan(1, 2, "v"),
		stPlan(2, 2, "v"),
	); err != nil {
		return err
	}
	if err := stFence(a, "s-handed", 7); err != nil {
		return err
	}
	if err := stWAL(b, "s-handed",
		stCreate("s-handed", "acme"),
		stPlan(1, 2, "v"),
		stDelta(2, 2, "v"), // crash window: re-journaled byte-identical
		stDelta(2, 2, "v"),
		stDelta(3, 2, "v"),
	); err != nil {
		return err
	}
	if err := stWAL(b, "s-solo",
		stKeyedCreate("s-solo", "acme", "tpch6-s", 2, tpch6Digest()),
		stPlan(1, 1, "v"),
	); err != nil {
		return err
	}
	return stLive(a,
		stLease(1, "lease-granted", 100),
		stLease(2, "lease-completed", 100),
		stLease(3, "lease-granted", 101),
		stLease(4, "lease-reclaimed", 101),
		stLease(5, "lease-granted", 102),
	)
}

// SelfTest runs the auditor against seeded corruptions and reports which it
// caught. Each case corrupts a fresh corpus in its own way; the audit must
// flag it with the expected check name (and the baseline must be clean).
func SelfTest() (*SelfTestResult, error) {
	cases := []selfTestCase{
		{
			name: "baseline stays clean", check: "",
			seed: func(string) error { return nil },
		},
		{
			name: "regressed seq", check: "seq_regression",
			seed: func(b string) error {
				return stWAL(b, "s-solo",
					stCreate("s-solo", "acme"),
					stPlan(1, 1, "v"),
					stPlan(5, 1, "v"),
					stPlan(3, 1, "v"),
				)
			},
		},
		{
			name: "lost decision (seq gap)", check: "seq_gap",
			seed: func(b string) error {
				return stWAL(b, "s-solo",
					stCreate("s-solo", "acme"),
					stPlan(1, 1, "v"),
					stPlan(4, 1, "v"),
				)
			},
		},
		{
			name: "delta without its base", check: "delta_base",
			seed: func(b string) error {
				// Every seq is there, so nothing else fires — but seq 3, a
				// delta, was appended before the interval it changes.
				return stWAL(b, "s-solo",
					stCreate("s-solo", "acme"),
					stPlan(1, 1, "v"),
					stDelta(3, 1, "v"),
					stPlan(2, 1, "v"),
				)
			},
		},
		{
			name: "dual unfenced writers", check: "split_brain",
			seed: func(b string) error {
				// Remove the fence: both copies of s-handed now claim to
				// be the live writer.
				return os.Remove(filepath.Join(filepath.Dir(b), "shard-a", "s-handed.wal.fence"))
			},
		},
		{
			name: "divergent retry (exactly-once)", check: "exactly_once",
			seed: func(b string) error {
				return stWAL(b, "s-handed",
					stCreate("s-handed", "acme"),
					stPlan(1, 2, "v"),
					stPlan(2, 2, "DIVERGENT"),
					stPlan(3, 2, "v"),
				)
			},
		},
		{
			name: "double-billed interval", check: "double_billing",
			seed: func(b string) error {
				return stWAL(b, "s-solo",
					stCreate("s-solo", "acme"),
					stPlan(1, 1, "v"),
					stPlan(2, 1, "first"),
					stPlan(2, 3, "second"),
				)
			},
		},
		{
			name: "fence epoch reuse", check: "fence_epoch_reuse",
			seed: func(b string) error {
				// Fence shard-b's copy at the SAME epoch shard-a's fence
				// already claims: two adopters believed they won epoch 7.
				// A third, unfenced copy on shard-c keeps the live-writer
				// and seq-coverage invariants intact.
				if err := stFence(b, "s-handed", 7); err != nil {
					return err
				}
				return stWAL(filepath.Join(filepath.Dir(b), "shard-c"), "s-handed",
					stCreate("s-handed", "acme"),
					stPlan(1, 2, "v"),
					stPlan(2, 2, "v"),
					stPlan(3, 2, "v"),
				)
			},
		},
		{
			name: "budget overspend", check: "budget_overspend",
			seed: func(b string) error {
				lines := []string{stCreate("s-spender", "acme")}
				for seq := int64(1); seq <= 200; seq++ {
					lines = append(lines, stPlan(seq, 8, "v"))
				}
				return stWAL(b, "s-spender", lines...)
			},
			cfg: func(cfg *Config) {
				cfg.TenantBudgets = map[string]float64{"acme": 1}
				cfg.SlackUnits = 1
			},
		},
		{
			name: "lease double-complete", check: "lease_identity",
			seed: func(b string) error {
				return stLive(b,
					stLease(1, "lease-granted", 200),
					stLease(2, "lease-completed", 200),
					stLease(3, "lease-completed", 200),
				)
			},
		},
		{
			name: "lease double-grant", check: "lease_identity",
			seed: func(b string) error {
				return stLive(b,
					stLease(1, "lease-granted", 201),
					stLease(2, "lease-granted", 201),
				)
			},
		},
		{
			name: "orphan lease terminal", check: "lease_identity",
			seed: func(b string) error {
				return stLive(b, stLease(1, "lease-reclaimed", 202))
			},
		},
		{
			name: "generator drift (doctored digest)", check: "workflow_digest",
			seed: func(b string) error {
				return stWAL(b, "s-solo",
					stKeyedCreate("s-solo", "acme", "tpch6-s", 2, strings.Repeat("0", 64)),
					stPlan(1, 1, "v"),
				)
			},
		},
		{
			name: "mid-file corruption", check: "corrupt_record",
			seed: func(b string) error {
				return stWAL(b, "s-solo",
					stCreate("s-solo", "acme"),
					`{"type":"plan","seq":1,"snapsho`, // torn — but NOT the tail
					stPlan(2, 1, "v"),
				)
			},
		},
	}

	res := &SelfTestResult{Cases: len(cases)}
	for _, tc := range cases {
		root, err := os.MkdirTemp("", "wire-audit-selftest-")
		if err != nil {
			return nil, err
		}
		a := filepath.Join(root, "shard-a")
		b := filepath.Join(root, "shard-b")
		c := filepath.Join(root, "shard-c")
		for _, d := range []string{a, b, c} {
			if err := os.MkdirAll(d, 0o755); err != nil {
				os.RemoveAll(root)
				return nil, err
			}
		}
		if err := cleanCorpus(a, b); err != nil {
			os.RemoveAll(root)
			return nil, err
		}
		if err := tc.seed(b); err != nil {
			os.RemoveAll(root)
			return nil, fmt.Errorf("audit selftest %q: seeding: %w", tc.name, err)
		}
		cfg := Config{Dirs: []string{a, b, c}}
		if tc.cfg != nil {
			tc.cfg(&cfg)
		}
		rep, err := Run(cfg)
		os.RemoveAll(root)
		if err != nil {
			return nil, fmt.Errorf("audit selftest %q: %w", tc.name, err)
		}
		switch {
		case tc.check == "":
			if rep.Clean() {
				res.Caught++
			} else {
				res.Missed = append(res.Missed, fmt.Sprintf("%s: expected a clean report, got %d violation(s): %+v", tc.name, len(rep.Violations), rep.Violations))
			}
		default:
			if hasCheck(rep, tc.check) {
				res.Caught++
			} else {
				res.Missed = append(res.Missed, fmt.Sprintf("%s: check %s did not fire (violations: %+v)", tc.name, tc.check, rep.Violations))
			}
		}
	}
	return res, nil
}

func hasCheck(rep *Report, check string) bool {
	for _, v := range rep.Violations {
		if v.Check == check {
			return true
		}
	}
	return false
}
