package main

import (
	"bytes"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// maxFlags is the binary's whole flag surface. A new flag needs a caller — a
// CI step, a README command or a test — and a reason to raise this.
const maxFlags = 17

// TestEveryFlagHasAReadmeCaller builds every subcommand's flag set and fails
// on a flag README.md never names: a flag nobody sets is an option nobody
// tests, so an unused one must not come back unnoticed.
func TestEveryFlagHasAReadmeCaller(t *testing.T) {
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, fs := range []*flag.FlagSet{
		newServeFlags().FlagSet,
		newRouteFlags().FlagSet,
		newAdminFlags().FlagSet,
		newAuditFlags().FlagSet,
	} {
		fs.VisitAll(func(fl *flag.Flag) {
			n++
			named := regexp.MustCompile(`(^|[^\w-])-` + regexp.QuoteMeta(fl.Name) + `($|[^\w-])`)
			if !named.Match(readme) {
				t.Errorf("%s: flag -%s appears nowhere in README.md", fs.Name(), fl.Name)
			}
		})
	}
	if n > maxFlags {
		t.Errorf("%d flags across the subcommands, want at most %d", n, maxFlags)
	}
}

// TestStrayWordsAreUsageErrors pins the command-line guard. A mistyped
// subcommand once fell back to serve, and since flag parsing stops at the
// first word that is not a flag, `wire-serve lodgen -server …` started a
// daemon on the default address. Every case here must fail before anything
// listens or dials.
func TestStrayWordsAreUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"lodgen", "-server", "http://127.0.0.1:1", "-sessions", "5"},
		{"-addr", "127.0.0.1:0", "loadgen"},
		{"serve", "-addr", "127.0.0.1:0", "extra"},
		{"route", "-addr", "127.0.0.1:0", "extra"},
		{"admin", "-drain", "s1", "extra"},
		{"loadgen", "-server", "http://127.0.0.1:1", "extra", "-sessions", "5"},
		// Flags that left the binary with the in-process certificates.
		{"loadgen", "-chaos"},
		{"loadgen", "-shards", "3"},
		{"audit", "-selftest"},
	} {
		if err := run(args); !errors.Is(err, errUsage) {
			t.Errorf("wire-serve %q: got %v, want a usage error", args, err)
		}
	}
}

// TestAuditTakesPositionalDirs: audit is the one subcommand with positional
// arguments, the journal directories.
func TestAuditTakesPositionalDirs(t *testing.T) {
	if err := run([]string{"audit", t.TempDir(), t.TempDir()}); err != nil {
		t.Fatalf("audit over two empty journal dirs: %v", err)
	}
}

// TestAuditChecksWorkflowDigests runs the audit subcommand over the keyed
// golden session log as written and with its workflow digest doctored: a
// journal this build would refuse to replay fails the audit, so it can be run
// over the journal directories before a rollout.
func TestAuditChecksWorkflowDigests(t *testing.T) {
	golden, err := os.ReadFile("../../internal/service/testdata/golden_keyed.wal")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "golden-keyed-01.wal")
	if err := os.WriteFile(path, golden, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"audit", dir}); err != nil {
		t.Fatalf("audit of the keyed golden log: %v", err)
	}
	digest := regexp.MustCompile(`"workflow_digest":"[0-9a-f]{64}"`)
	doctored := digest.ReplaceAll(golden, []byte(`"workflow_digest":"`+strings.Repeat("0", 64)+`"`))
	if bytes.Equal(doctored, golden) {
		t.Fatal("the keyed golden log has no workflow digest")
	}
	if err := os.WriteFile(path, doctored, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"audit", dir}); err == nil || !strings.Contains(err.Error(), "1 violation") {
		t.Fatalf("audit of a log with a doctored workflow digest: %v, want one violation", err)
	}
}
