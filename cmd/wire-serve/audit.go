package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/audit"
)

type auditFlags struct {
	*flag.FlagSet
	dirs, budgets stringList
	slack         *float64
}

func newAuditFlags() *auditFlags {
	fs := newFlagSet("audit")
	f := &auditFlags{FlagSet: fs}
	fs.Var(&f.dirs, "journal", "journal directory to audit (repeatable; positional args are accepted too)")
	fs.Var(&f.budgets, "budget", "per-tenant budget as tenant=units (repeatable; enables the budget_overspend check)")
	f.slack = fs.Float64("slack", 0, "charging units of slack before budget_overspend fires (austerity admission may legitimately run slightly over)")
	return f
}

// runAudit merges a set of journal directories and checks the global
// consistency invariants (internal/audit), printing the JSON report to
// stdout. Exit status is the verdict: non-zero when any violation is found,
// so `wire-serve audit ... || alert` is the whole integration.
func runAudit(args []string) error {
	f := newAuditFlags()
	if err := parseFlags(f.FlagSet, args, true); err != nil {
		return err
	}
	dirs := append(f.dirs, f.Args()...)
	if len(dirs) == 0 {
		return fmt.Errorf("audit wants at least one -journal directory")
	}
	budgets := map[string]float64{}
	for _, b := range f.budgets {
		tenant, units, ok := strings.Cut(b, "=")
		if !ok {
			return fmt.Errorf("audit -budget wants tenant=units (got %q)", b)
		}
		u, err := strconv.ParseFloat(units, 64)
		if err != nil {
			return fmt.Errorf("audit -budget %s: %w", b, err)
		}
		budgets[tenant] = u
	}
	rep, err := audit.Run(audit.Config{Dirs: dirs, TenantBudgets: budgets, SlackUnits: *f.slack})
	if err != nil {
		return err
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		return err
	}
	if !rep.Clean() {
		return fmt.Errorf("audit: %d violation(s) across %d session(s)", len(rep.Violations), rep.Sessions)
	}
	stderrf("wire-serve audit: clean — %d session(s), %d WAL(s), %d plan(s), %d live record(s)",
		rep.Sessions, rep.WALs, rep.Plans, rep.LiveRecords)
	return nil
}
