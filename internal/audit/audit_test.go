package audit

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// TestSelfTestFullCoverage is the mutation-coverage acceptance gate: every
// seeded corruption must be flagged by the check named for it. An auditor
// that certifies a corrupted corpus is a liability, so 100% is the bar.
func TestSelfTestFullCoverage(t *testing.T) {
	res, err := SelfTest()
	if err != nil {
		t.Fatalf("selftest: %v", err)
	}
	if !res.Ok() {
		t.Fatalf("auditor missed %d of %d seeded corruption(s):\n%v", len(res.Missed), res.Cases, res.Missed)
	}
	if res.Caught != res.Cases {
		t.Fatalf("caught %d of %d cases with no misses reported — selftest accounting bug", res.Caught, res.Cases)
	}
}

// TestCleanCorpusReport pins the report statistics over the clean baseline:
// sessions, WAL copies, fences, merged plans, lease totals, and the lease
// identity equation.
func TestCleanCorpusReport(t *testing.T) {
	root := t.TempDir()
	a := filepath.Join(root, "shard-a")
	b := filepath.Join(root, "shard-b")
	for _, d := range []string{a, b} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	if err := cleanCorpus(a, b); err != nil {
		t.Fatal(err)
	}
	rep, err := Run(Config{Dirs: []string{a, b}, TenantBudgets: map[string]float64{"acme": 1}, SlackUnits: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() {
		t.Fatalf("clean corpus flagged: %+v", rep.Violations)
	}
	if rep.Sessions != 2 || rep.WALs != 3 || rep.Fenced != 1 {
		t.Errorf("sessions=%d wals=%d fenced=%d, want 2/3/1", rep.Sessions, rep.WALs, rep.Fenced)
	}
	lt := rep.Leases
	if lt.Granted != lt.Completed+lt.Reclaimed+lt.Superseded+lt.Outstanding {
		t.Errorf("lease identity broken: %+v", lt)
	}
	if lt.Granted != 3 || lt.Completed != 1 || lt.Reclaimed != 1 || lt.Outstanding != 1 {
		t.Errorf("lease totals %+v, want granted=3 completed=1 reclaimed=1 outstanding=1", lt)
	}
	// 4 merged plan intervals (3 for s-handed, 1 for s-solo) at
	// (2,2,2,1) instances x 30s = 210 instance-seconds / 3600 = 0.0583 units.
	spend := rep.TenantSpend["acme"]
	if spend <= 0 || spend > 1 {
		t.Errorf("acme spend %.4f units, want small positive", spend)
	}
}

// TestSnapshotKeysMatchExactly audits a journal whose plan bodies repeat the
// billed keys and the delta marker in other letter case, as a posted body may.
// The daemon's codec matches keys exactly and planned on the lower-case ones,
// so the audit must equal that of the same journal without the extra keys:
// the same spend, and no delta_base for a full body written "Delta":true.
func TestSnapshotKeysMatchExactly(t *testing.T) {
	oddKeys := strings.NewReplacer(`},"response"`, `,"Delta":true,"Instances":[],"INTERVAL_S":1e-9},"response"`)
	dir := t.TempDir()
	audited := func(odd bool) *Report {
		// Seq 3 is journaled before seq 2: a delta there would have no base.
		lines := []string{stCreate("s-cased", "acme"), stPlan(1, 2, "v"), stPlan(3, 4, "v"), stPlan(2, 3, "v")}
		if odd {
			for i := 1; i < len(lines); i++ {
				lines[i] = oddKeys.Replace(lines[i])
			}
		}
		if err := stWAL(dir, "s-cased", lines...); err != nil {
			t.Fatal(err)
		}
		rep, err := Run(Config{Dirs: []string{dir}})
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	odd, canon := audited(true), audited(false)
	if hasCheck(odd, "delta_base") {
		t.Fatalf("a full body with a case-folded delta marker was audited as a delta: %+v", odd.Violations)
	}
	if got, want := odd.TenantSpend["acme"], canon.TenantSpend["acme"]; got != want || want != (2+4+3)*30.0/3600 {
		t.Fatalf("acme spend %v units, want %v, the spend of the bodies' exact keys", got, want)
	}
	if !reflect.DeepEqual(odd.Violations, canon.Violations) {
		t.Fatalf("violations %+v, want the canonical journal's %+v", odd.Violations, canon.Violations)
	}
}

// TestRunRejectsEmptyConfig pins the I/O error contract.
func TestRunRejectsEmptyConfig(t *testing.T) {
	if _, err := Run(Config{}); err == nil {
		t.Fatal("empty config accepted")
	}
	if _, err := Run(Config{Dirs: []string{filepath.Join(t.TempDir(), "missing")}}); err == nil {
		t.Fatal("missing directory accepted")
	}
}

// TestGoldenWAL reads the session log checked in beside the service package
// (which asserts that its write path still produces it byte for byte) through
// this package's own line-based decoder: the shared fixture is what keeps the
// writer and the independent auditor agreed on the format without sharing
// code.
func TestGoldenWAL(t *testing.T) {
	golden, err := os.ReadFile(filepath.Join("..", "service", "testdata", "golden.wal"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "golden-session-01.wal")
	if err := os.WriteFile(path, golden, 0o644); err != nil {
		t.Fatal(err)
	}

	rep := &Report{}
	c, err := parseWAL(dir, path, rep)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Violations) != 0 {
		t.Fatalf("golden WAL flagged: %+v", rep.Violations)
	}
	if c.session != "golden-session-01" || c.tenant != "acme" || c.fenced {
		t.Errorf("session %q tenant %q fenced %v, want golden-session-01/acme/unfenced", c.session, c.tenant, c.fenced)
	}
	if len(c.plans) != 3 {
		t.Fatalf("decoded %d plan record(s), want 3", len(c.plans))
	}
	// Instances in each snapshot x the 60 s interval, on a 300 s unit.
	wantSpend := []float64{60, 120, 120}
	for i, p := range c.plans {
		if p.seq != int64(i+1) {
			t.Errorf("plan %d has seq %d", i+1, p.seq)
		}
		if p.spend != wantSpend[i] || p.unitS != 300 {
			t.Errorf("seq %d: spend %v instance-seconds on a %v s unit, want %v on 300", p.seq, p.spend, p.unitS, wantSpend[i])
		}
		if !strings.Contains(p.resp, `"session_id":"golden-session-01"`) || !strings.Contains(p.resp, fmt.Sprintf(`"seq":%d`, p.seq)) {
			t.Errorf("seq %d: response bytes not recovered: %.80s", p.seq, p.resp)
		}
		if degraded := strings.Contains(p.resp, `"degraded":true`); degraded != (p.seq == 2) {
			t.Errorf("seq %d: degraded = %v", p.seq, degraded)
		}
	}

	full, err := Run(Config{Dirs: []string{dir}, TenantBudgets: map[string]float64{"acme": 1}})
	if err != nil {
		t.Fatal(err)
	}
	if !full.Clean() || full.Sessions != 1 || full.WALs != 1 || full.Plans != 3 {
		t.Fatalf("audit of the golden WAL: sessions=%d wals=%d plans=%d violations=%+v",
			full.Sessions, full.WALs, full.Plans, full.Violations)
	}
	if spend := full.TenantSpend["acme"]; spend != 1 {
		t.Errorf("acme spend %v units, want (60+120+120)/300 = 1", spend)
	}

	// Plans 2 and 3 are deltas. The same log without plan 2 must trip the
	// base check on plan 3: the golden passes because the auditor reads the
	// delta marker, not because it reads nothing.
	lines := strings.SplitAfter(string(golden), "\n")
	if err := os.WriteFile(path, []byte(lines[0]+lines[1]+lines[3]), 0o644); err != nil {
		t.Fatal(err)
	}
	forged, err := Run(Config{Dirs: []string{dir}})
	if err != nil {
		t.Fatal(err)
	}
	if !hasCheck(forged, "delta_base") || !hasCheck(forged, "seq_gap") {
		t.Fatalf("a delta cut off from its base was reported as %+v", forged.Violations)
	}
}

// TestGoldenLiveJournal reads the live-run journal checked in beside the exec
// package (which asserts that its write path still produces it byte for byte)
// through the lease check: the same arrangement TestGoldenWAL gives the
// session schema.
func TestGoldenLiveJournal(t *testing.T) {
	golden, err := os.ReadFile(filepath.Join("..", "exec", "testdata", "golden.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "live-golden.jsonl"), golden, 0o644); err != nil {
		t.Fatal(err)
	}
	rep, err := Run(Config{Dirs: []string{dir}})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() || rep.LiveRecords != 16 {
		t.Fatalf("audit of the golden live journal: %d record(s), violations %+v", rep.LiveRecords, rep.Violations)
	}
	// Leases 1 and 3 complete, 2 is superseded by its speculative duplicate,
	// 4 is reclaimed, 5 is held when the log ends.
	want := LeaseTotals{Granted: 5, Completed: 2, Reclaimed: 1, Superseded: 1, Outstanding: 1}
	if rep.Leases != want {
		t.Fatalf("lease totals %+v, want %+v", rep.Leases, want)
	}
	// The last line is lease 5's lease-transfer record, a kind the lease check
	// does not know: the verdict is the one the log gets without it.
	lines := strings.SplitAfter(string(golden), "\n")
	if !strings.Contains(lines[15], `"kind":"lease-transfer"`) {
		t.Fatalf("line 16 of the golden live journal is %s", lines[15])
	}
	if err := os.WriteFile(filepath.Join(dir, "live-golden.jsonl"), []byte(strings.Join(lines[:15], "")), 0o644); err != nil {
		t.Fatal(err)
	}
	rep, err = Run(Config{Dirs: []string{dir}})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() || rep.LiveRecords != 15 || rep.Leases != want {
		t.Fatalf("without the lease-transfer line: %d record(s), totals %+v, violations %+v", rep.LiveRecords, rep.Leases, rep.Violations)
	}

	// The same log with lease 1 granted twice must trip the check: the golden
	// passes because the auditor reads it, not because it reads nothing.
	forged := strings.Join(append(lines[:6:6], append([]string{lines[5]}, lines[6:]...)...), "")
	if err := os.WriteFile(filepath.Join(dir, "live-golden.jsonl"), []byte(forged), 0o644); err != nil {
		t.Fatal(err)
	}
	rep, err = Run(Config{Dirs: []string{dir}})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Violations) != 1 || rep.Violations[0].Check != "lease_identity" {
		t.Fatalf("a doubled lease grant was reported as %+v", rep.Violations)
	}
}

// TestWorkflowDigestCheck audits the keyed golden session log checked in
// beside the service package, and a live run created by catalogue key, as
// written and with the digest doctored: the written ones audit clean, and
// each doctored record is one workflow_digest violation naming its session or
// run, the key and the seed.
func TestWorkflowDigestCheck(t *testing.T) {
	golden, err := os.ReadFile(filepath.Join("..", "service", "testdata", "golden_keyed.wal"))
	if err != nil {
		t.Fatal(err)
	}
	create := struct {
		Key    string `json:"workflow_key"`
		Seed   int64  `json:"workflow_seed"`
		Digest string `json:"workflow_digest"`
	}{}
	if err := json.Unmarshal([]byte(strings.SplitN(string(golden), "\n", 2)[0]), &create); err != nil || create.Digest == "" {
		t.Fatalf("the keyed golden log's create record: %+v, %v", create, err)
	}
	live := fmt.Sprintf(`{"seq":1,"wall_ms":0,"now_s":0,"kind":"run-created","detail":"tpch6","run_spec":{"workflow_key":%q,"workflow_seed":%d,"slots_per_instance":2,"lag_time_s":2,"charging_unit_s":30},"workflow_digest":%q}`+"\n",
		create.Key, create.Seed, create.Digest)
	audited := func(doctor bool) *Report {
		t.Helper()
		wal, run := string(golden), live
		if doctor {
			zeros := strings.Repeat("0", len(create.Digest))
			wal, run = strings.Replace(wal, create.Digest, zeros, 1), strings.Replace(run, create.Digest, zeros, 1)
		}
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "golden-keyed-01.wal"), []byte(wal), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "live-keyed.jsonl"), []byte(run), 0o644); err != nil {
			t.Fatal(err)
		}
		rep, err := Run(Config{Dirs: []string{dir}})
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	if rep := audited(false); !rep.Clean() || rep.Plans != 2 || rep.LiveRecords != 1 {
		t.Fatalf("audit of the keyed golden log and run: %d plan(s), %d live record(s), violations %+v", rep.Plans, rep.LiveRecords, rep.Violations)
	}
	rep := audited(true)
	if len(rep.Violations) != 2 {
		t.Fatalf("doctored digests were reported as %+v", rep.Violations)
	}
	for i, session := range []string{"golden-keyed-01", "live-keyed"} {
		v := rep.Violations[i]
		if v.Check != "workflow_digest" || v.Session != session || !strings.Contains(v.Detail, fmt.Sprintf("%q seed %d", create.Key, create.Seed)) {
			t.Errorf("violation %d: %+v, want workflow_digest for %s naming key %q and seed %d", i, v, session, create.Key, create.Seed)
		}
	}
}
