// Package audit is the offline consistency auditor for the sharded control
// plane: it ingests every shard's journal directory after a run (or a
// nemesis) and proves machine-checkable global invariants over the merged
// write-ahead logs — exactly-once planning, single-writer fencing, monotone
// sequence numbers, lease identity, and tenant spend accounting. The checks
// deliberately re-parse the JSONL independently of the service package's
// replay path: an auditor that shares the production decoder inherits its
// blind spots. The one exception is a plan's snapshot, the body as the client
// posted it: it is read with monitor's codec, the parser the daemon planned
// on, because a second reading of the same bytes (encoding/json folds key
// case) would bill values the daemon never saw.
//
// The invariants, by check name as they appear in the violation report:
//
//   - exactly_once: every (session, seq) pair resolves to byte-identical
//     response bytes across every WAL copy — the fenced source left behind
//     by a handoff and the adopter's copy must agree on what was decided.
//   - double_billing: a duplicate seq WITHIN one WAL whose response bytes
//     diverge. (A byte-identical duplicate is the benign crash-window: the
//     record was journaled, the ack was lost, the retry re-journaled the
//     same decision.)
//   - seq_regression: a plan record's seq is at or below an earlier
//     record's in the same WAL with different bytes — the log went back in
//     time.
//   - delta_base: a plan record whose snapshot is a delta (the task records
//     that changed since the previous interval) needs the record of the
//     interval before it earlier in the same WAL copy — replay folds a delta
//     into the snapshot it has materialised so far, so a delta that runs
//     ahead of its predecessor has nothing right to fold into.
//   - seq_gap: the union of seqs across a session's copies must cover
//     1..max with no holes — a hole is a decision a client observed that no
//     surviving journal carries.
//   - split_brain: at most one unfenced copy of a session may exist across
//     all directories; two unfenced copies are two live writers.
//   - fence_epoch_reuse: a session's fence files must carry distinct
//     positive epochs — the same epoch claimed twice means two adopters
//     believed they won the same handoff.
//   - lease_identity: over the execution live journals, every lease is
//     granted at most once, reaches at most one terminal state
//     (completed/reclaimed/superseded), and no terminal appears for a lease
//     never granted; granted == completed + reclaimed + superseded +
//     outstanding by construction, and the totals are reported.
//   - budget_overspend: each tenant's spend in charging units (recomputed
//     from the plan snapshots: instances × interval, divided by the last
//     observed charging unit) must not exceed its budget plus the
//     configured slack. Admission control lets an idle tenant start one
//     session past its budget by design, so a slack of one session's worth
//     of units is legitimate; anything beyond is double-charging.
//   - workflow_digest: a create record that names a catalogue workflow by
//     key and seed (a session's, or a live run's run-created record) must
//     regenerate, under this binary's generator, to the digest it recorded.
//     Replay refuses a journal that does not, so running this before a
//     rollout finds the sessions and runs the new build would not recover.
package audit

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/exec"
	"repro/internal/monitor"
	"repro/internal/workloads"
)

// Config selects what to audit.
type Config struct {
	// Dirs are the journal directories to ingest — one per shard, plus any
	// execution live-journal directories. Required.
	Dirs []string
	// TenantBudgets, when non-empty, enables the budget_overspend check:
	// tenant name → budget in charging units.
	TenantBudgets map[string]float64
	// SlackUnits is the allowed overshoot on budget_overspend (default 0).
	// Admission control admits an idle tenant's next session even at the
	// budget edge, so a slack of one session's worth of units reflects the
	// documented contract rather than a bug.
	SlackUnits float64
}

// Violation is one invariant breach.
type Violation struct {
	Check   string `json:"check"`
	Session string `json:"session,omitempty"`
	Tenant  string `json:"tenant,omitempty"`
	Dir     string `json:"dir,omitempty"`
	Detail  string `json:"detail"`
}

// LeaseTotals is the lease identity equation over the live journals:
// Granted == Completed + Reclaimed + Superseded + Outstanding.
type LeaseTotals struct {
	Granted     int `json:"granted"`
	Completed   int `json:"completed"`
	Reclaimed   int `json:"reclaimed"`
	Superseded  int `json:"superseded"`
	Outstanding int `json:"outstanding"`
}

// Report is the auditor's verdict: corpus statistics plus every violation
// found. An empty Violations slice is the certificate.
type Report struct {
	Dirs        []string    `json:"dirs"`
	Sessions    int         `json:"sessions"`
	WALs        int         `json:"wals"`
	Fenced      int         `json:"fenced"`
	Plans       int         `json:"plans"`
	LiveRecords int         `json:"live_records"`
	Leases      LeaseTotals `json:"leases"`
	// TenantSpend is each tenant's recomputed spend in charging units.
	TenantSpend map[string]float64 `json:"tenant_spend_units,omitempty"`
	Violations  []Violation        `json:"violations"`
}

// Clean reports whether the audit found no violations.
func (r *Report) Clean() bool { return len(r.Violations) == 0 }

// checkDigest is the workflow_digest check on one create record that names
// a catalogue workflow by key and seed.
func (r *Report) checkDigest(session, dir, key string, seed int64, digest string) {
	if _, err := workloads.Regenerate(key, seed, digest); err != nil {
		r.Violations = append(r.Violations, Violation{
			Check: "workflow_digest", Session: session, Dir: dir, Detail: err.Error(),
		})
	}
}

// walRec mirrors the service WAL line shape, decoded independently.
// Response and Snapshot stay raw: the exactly-once check compares bytes, not
// any interpretation of them.
type walRec struct {
	Type           string `json:"type"`
	ID             string `json:"id,omitempty"`
	Tenant         string `json:"tenant,omitempty"`
	WorkflowKey    string `json:"workflow_key,omitempty"`
	WorkflowSeed   int64  `json:"workflow_seed,omitempty"`
	WorkflowDigest string `json:"workflow_digest,omitempty"`

	Seq      int64           `json:"seq,omitempty"`
	Snapshot json.RawMessage `json:"snapshot,omitempty"`
	Response json.RawMessage `json:"response,omitempty"`
}

// planRec is one parsed plan record.
type planRec struct {
	seq   int64
	resp  string // compacted response bytes
	spend float64
	unitS float64
}

// walCopy is one WAL file — one copy of one session's log. A session can
// have several copies: the fenced source a handoff left behind plus the
// adopter's live copy.
type walCopy struct {
	dir        string
	path       string
	session    string
	tenant     string
	fenced     bool
	fenceEpoch int64
	plans      []planRec
}

// fenceRec mirrors the <wal>.fence file body.
type fenceRec struct {
	Epoch int64 `json:"epoch"`
}

// Run audits the configured directories and returns the report. Only I/O
// errors are returned as errors; invariant breaches are violations in the
// report.
func Run(cfg Config) (*Report, error) {
	if len(cfg.Dirs) == 0 {
		return nil, fmt.Errorf("audit: no journal directories given")
	}
	rep := &Report{Dirs: append([]string(nil), cfg.Dirs...)}
	var copies []*walCopy
	var liveFiles []string
	for _, dir := range cfg.Dirs {
		entries, err := os.ReadDir(dir)
		if err != nil {
			return nil, fmt.Errorf("audit: %w", err)
		}
		for _, e := range entries {
			if e.IsDir() {
				continue
			}
			name := e.Name()
			path := filepath.Join(dir, name)
			switch {
			case strings.HasSuffix(name, ".wal"):
				c, err := parseWAL(dir, path, rep)
				if err != nil {
					return nil, err
				}
				copies = append(copies, c)
			case strings.HasPrefix(name, "live-") && strings.HasSuffix(name, ".jsonl"):
				liveFiles = append(liveFiles, path)
			}
		}
	}
	rep.WALs = len(copies)
	mergeSessions(cfg, rep, copies)
	if err := auditLeases(rep, liveFiles); err != nil {
		return nil, err
	}
	sort.Slice(rep.Violations, func(i, j int) bool {
		a, b := rep.Violations[i], rep.Violations[j]
		if a.Check != b.Check {
			return a.Check < b.Check
		}
		if a.Session != b.Session {
			return a.Session < b.Session
		}
		return a.Detail < b.Detail
	})
	return rep, nil
}

// parseWAL reads one WAL copy, running the within-file checks as it goes.
// A torn final line (partial write at crash) is tolerated — that is the
// documented crash window — but a malformed line with records after it is
// corruption, not a crash artifact.
func parseWAL(dir, path string, rep *Report) (*walCopy, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("audit: %w", err)
	}
	defer f.Close()
	c := &walCopy{dir: dir, path: path, session: strings.TrimSuffix(filepath.Base(path), ".wal")}
	if b, err := os.ReadFile(path + ".fence"); err == nil {
		c.fenced = true
		var fr fenceRec
		if json.Unmarshal(b, &fr) == nil {
			c.fenceEpoch = fr.Epoch
		}
		rep.Fenced++
	}

	var lines [][]byte
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64<<10), 64<<20)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		lines = append(lines, append([]byte(nil), sc.Bytes()...))
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("audit: %s: %w", path, err)
	}

	maxSeq := int64(0)
	seen := map[int64]string{}
	for i, line := range lines {
		var rec walRec
		if err := json.Unmarshal(line, &rec); err != nil {
			if i == len(lines)-1 {
				break // torn tail: the crash window, truncated on replay
			}
			rep.Violations = append(rep.Violations, Violation{
				Check: "corrupt_record", Session: c.session, Dir: dir,
				Detail: fmt.Sprintf("unparseable record %d of %d (not a torn tail): %v", i+1, len(lines), err),
			})
			continue
		}
		switch rec.Type {
		case "create":
			c.tenant = rec.Tenant
			if rec.WorkflowKey != "" {
				rep.checkDigest(c.session, dir, rec.WorkflowKey, rec.WorkflowSeed, rec.WorkflowDigest)
			}
		case "plan":
			resp := compact(rec.Response)
			if prev, dup := seen[rec.Seq]; dup {
				if prev != resp {
					rep.Violations = append(rep.Violations, Violation{
						Check: "double_billing", Session: c.session, Tenant: c.tenant, Dir: dir,
						Detail: fmt.Sprintf("seq %d journaled twice with divergent responses — the same interval was decided (and billed) twice", rec.Seq),
					})
				}
				// Byte-identical duplicate: journaled, ack lost, retried.
			} else if rec.Seq <= maxSeq {
				rep.Violations = append(rep.Violations, Violation{
					Check: "seq_regression", Session: c.session, Tenant: c.tenant, Dir: dir,
					Detail: fmt.Sprintf("seq %d appended after seq %d", rec.Seq, maxSeq),
				})
			}
			pr := planRec{seq: rec.Seq, resp: resp}
			// Billing reads the instances and interval — a delta snapshot
			// carries these in full, like any other — and the unit.
			var snap monitor.Snapshot
			if len(rec.Snapshot) > 0 && monitor.UnmarshalSnapshot(rec.Snapshot, &snap) == nil {
				pr.spend = float64(len(snap.Instances)) * snap.Interval
				pr.unitS = snap.ChargingUnit
			}
			// Replay takes intervals in rising order and skips what it has
			// seen; a delta it would take must be the very next interval.
			if snap.Delta && rec.Seq > maxSeq+1 {
				rep.Violations = append(rep.Violations, Violation{
					Check: "delta_base", Session: c.session, Tenant: c.tenant, Dir: dir,
					Detail: fmt.Sprintf("seq %d is a delta but seq %d is not in the log before it: the snapshot it changes is not the one replay holds", rec.Seq, rec.Seq-1),
				})
			}
			if rec.Seq > maxSeq {
				maxSeq = rec.Seq
			}
			seen[rec.Seq] = resp
			c.plans = append(c.plans, pr)
			rep.Plans++
		}
	}
	return c, nil
}

// mergeSessions runs the cross-copy checks: exactly-once agreement, the
// single-unfenced-writer rule, fence epoch uniqueness, seq coverage, and the
// tenant spend recomputation.
func mergeSessions(cfg Config, rep *Report, copies []*walCopy) {
	bySession := map[string][]*walCopy{}
	for _, c := range copies {
		bySession[c.session] = append(bySession[c.session], c)
	}
	rep.Sessions = len(bySession)
	sessions := make([]string, 0, len(bySession))
	for id := range bySession {
		sessions = append(sessions, id)
	}
	sort.Strings(sessions)

	spendS := map[string]float64{}
	unitS := map[string]float64{}
	for _, id := range sessions {
		group := bySession[id]
		tenant := ""
		unfenced := 0
		epochs := map[int64][]string{}
		merged := map[int64]planRec{}
		for _, c := range group {
			if c.tenant != "" {
				tenant = c.tenant
			}
			if !c.fenced {
				unfenced++
			} else if c.fenceEpoch > 0 {
				epochs[c.fenceEpoch] = append(epochs[c.fenceEpoch], c.dir)
			}
			for _, pr := range c.plans {
				if got, ok := merged[pr.seq]; ok {
					if got.resp != pr.resp {
						rep.Violations = append(rep.Violations, Violation{
							Check: "exactly_once", Session: id, Tenant: tenant, Dir: c.dir,
							Detail: fmt.Sprintf("seq %d has divergent response bytes across journal copies", pr.seq),
						})
					}
					continue
				}
				merged[pr.seq] = pr
			}
		}
		if unfenced > 1 {
			rep.Violations = append(rep.Violations, Violation{
				Check: "split_brain", Session: id, Tenant: tenant,
				Detail: fmt.Sprintf("%d unfenced journal copies — more than one live writer", unfenced),
			})
		}
		for ep, dirs := range epochs {
			if len(dirs) > 1 {
				rep.Violations = append(rep.Violations, Violation{
					Check: "fence_epoch_reuse", Session: id, Tenant: tenant,
					Detail: fmt.Sprintf("fence epoch %d claimed by %d handoffs (%s)", ep, len(dirs), strings.Join(dirs, ", ")),
				})
			}
		}
		maxSeq := int64(0)
		for seq := range merged {
			if seq > maxSeq {
				maxSeq = seq
			}
		}
		for seq := int64(1); seq <= maxSeq; seq++ {
			if _, ok := merged[seq]; !ok {
				rep.Violations = append(rep.Violations, Violation{
					Check: "seq_gap", Session: id, Tenant: tenant,
					Detail: fmt.Sprintf("no surviving journal carries seq %d (max %d)", seq, maxSeq),
				})
			}
		}
		if tenant != "" {
			// Charge each decided interval exactly once, in seq order so
			// "last observed charging unit" matches the metering rule.
			seqs := make([]int64, 0, len(merged))
			for seq := range merged {
				seqs = append(seqs, seq)
			}
			sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
			for _, seq := range seqs {
				pr := merged[seq]
				spendS[tenant] += pr.spend
				if pr.unitS > 0 {
					unitS[tenant] = pr.unitS
				}
			}
		}
	}

	rep.TenantSpend = map[string]float64{}
	for tenant, s := range spendS {
		u := unitS[tenant]
		if u <= 0 {
			u = 3600
		}
		rep.TenantSpend[tenant] = s / u
	}
	for tenant, budget := range cfg.TenantBudgets {
		if spent := rep.TenantSpend[tenant]; spent > budget+cfg.SlackUnits {
			rep.Violations = append(rep.Violations, Violation{
				Check: "budget_overspend", Tenant: tenant,
				Detail: fmt.Sprintf("spent %.2f charging units against a budget of %.2f (+%.2f slack)", spent, budget, cfg.SlackUnits),
			})
		}
	}
}

// auditLeases replays the execution live journals and checks the lease
// identity: one grant, at most one terminal, no orphan terminals.
func auditLeases(rep *Report, files []string) error {
	sort.Strings(files)
	type leaseState struct {
		grants    int
		terminals []string
	}
	leases := map[int64]*leaseState{}
	for _, path := range files {
		recs, _, err := exec.ReadJournal(path)
		if err != nil {
			return fmt.Errorf("audit: %s: %w", path, err)
		}
		rep.LiveRecords += len(recs)
		for _, rec := range recs {
			if rec.Kind == exec.RecRunCreated && rec.WorkflowDigest != "" {
				// A spec that does not decode names no workflow and fails
				// the check.
				var spec exec.CreateRunRequest
				_ = json.Unmarshal(rec.Spec, &spec)
				rep.checkDigest(strings.TrimSuffix(filepath.Base(path), ".jsonl"), filepath.Dir(path),
					spec.WorkflowKey, spec.WorkflowSeed, rec.WorkflowDigest)
			}
			if rec.Lease == nil {
				continue
			}
			id := *rec.Lease
			ls := leases[id]
			if ls == nil {
				ls = &leaseState{}
				leases[id] = ls
			}
			switch rec.Kind {
			case exec.RecLeaseGranted, exec.RecLeaseSpeculated:
				ls.grants++
				if ls.grants == 2 { // flag once, not per extra grant
					rep.Violations = append(rep.Violations, Violation{
						Check: "lease_identity", Dir: filepath.Dir(path),
						Detail: fmt.Sprintf("lease %d granted more than once", id),
					})
				}
			case exec.RecLeaseCompleted, exec.RecLeaseReclaimed, exec.RecLeaseSuperseded:
				ls.terminals = append(ls.terminals, rec.Kind)
				if len(ls.terminals) == 2 {
					rep.Violations = append(rep.Violations, Violation{
						Check: "lease_identity", Dir: filepath.Dir(path),
						Detail: fmt.Sprintf("lease %d reached terminal states %s", id, strings.Join(ls.terminals, "+")),
					})
				}
			}
		}
	}
	ids := make([]int64, 0, len(leases))
	for id := range leases {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		ls := leases[id]
		if ls.grants == 0 && len(ls.terminals) > 0 {
			rep.Violations = append(rep.Violations, Violation{
				Check:  "lease_identity",
				Detail: fmt.Sprintf("lease %d reached %s without ever being granted", id, ls.terminals[0]),
			})
		}
		if ls.grants > 0 {
			rep.Leases.Granted++
			switch {
			case len(ls.terminals) == 0:
				rep.Leases.Outstanding++
			default:
				switch ls.terminals[0] {
				case exec.RecLeaseCompleted:
					rep.Leases.Completed++
				case exec.RecLeaseReclaimed:
					rep.Leases.Reclaimed++
				case exec.RecLeaseSuperseded:
					rep.Leases.Superseded++
				}
			}
		}
	}
	return nil
}

// compact canonicalizes raw JSON for byte comparison (whitespace-insensitive,
// key order preserved — the journal encoder is deterministic, so any real
// divergence survives compaction).
func compact(raw json.RawMessage) string {
	if len(raw) == 0 {
		return ""
	}
	var buf strings.Builder
	dec := json.NewDecoder(strings.NewReader(string(raw)))
	dec.UseNumber()
	var v any
	if err := dec.Decode(&v); err != nil {
		return string(raw)
	}
	b, err := json.Marshal(v)
	if err != nil {
		return string(raw)
	}
	buf.Write(b)
	return buf.String()
}
