package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"strings"
	"sync"
	"testing"

	"repro/internal/experiments"
	"repro/internal/report"
)

// printed is one wire-bench invocation: its section data and its stdout.
type printed struct {
	res    *results
	stdout string
}

// invoke runs wire-bench at paper scale with the given seed and -only keys
// (none: every section).
func invoke(seed int64, keys map[string]bool) (*printed, error) {
	cfg := experiments.Defaults()
	cfg.Seed = seed
	var out strings.Builder
	res, err := run(&out, io.Discard, cfg, func(k string) bool { return len(keys) == 0 || keys[k] }, false)
	if err != nil {
		return nil, err
	}
	return &printed{res, out.String()}, nil
}

// fullRun is the default invocation, every section at seed 1, which both
// the EXPERIMENTS.md check and the claims read. It takes about 2 s on two
// cores, so it runs once per test binary and not under -short.
var fullRun = sync.OnceValues(func() (*printed, error) { return invoke(1, nil) })

func seedOne(t *testing.T) *printed {
	t.Helper()
	if testing.Short() {
		t.Skip("runs every wire-bench section at paper scale")
	}
	p, err := fullRun()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// Every table in EXPERIMENTS.md is the output of the wire-bench command its
// section names, cell for cell: a doc table shows some of a section's
// columns and rows, its rows matched on the leading columns that tell the
// section's rows apart. Every line of a fenced block in such a section is a
// line the command prints. A failing table prints its replacement, so an
// intended change to the numbers is a reviewed paste.
func TestExperimentsMatchSections(t *testing.T) {
	raw, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for _, ds := range docSections(string(raw)) {
		if len(ds.tables) == 0 && len(ds.fenced) == 0 {
			continue
		}
		if ds.command == "" {
			t.Errorf("EXPERIMENTS.md %q shows a table or output but names no `go run ./cmd/wire-bench` command", ds.heading)
			continue
		}
		seed, keys, err := parseCommand(ds.command)
		if err != nil {
			t.Errorf("EXPERIMENTS.md %q: %v", ds.heading, err)
			continue
		}
		var p *printed
		if seed == 1 {
			p = seedOne(t)
		} else if p, err = invoke(seed, keys); err != nil {
			t.Fatal(err)
		}
		var tables []*report.Table
		for _, s := range sections {
			if len(keys) == 0 || keys[s.key] {
				tables = append(tables, s.table(p.res))
			}
		}
		next := 0
		for _, doc := range ds.tables {
			i := next
			for i < len(tables) && !hasColumns(tables[i], doc[0]) {
				i++
			}
			if i == len(tables) {
				t.Errorf("EXPERIMENTS.md %q: no section after the previous table's has the columns %q", ds.heading, doc[0])
				continue
			}
			next = i + 1
			for _, msg := range compareTable(doc, tables[i]) {
				t.Errorf("EXPERIMENTS.md %q, section %q: %s", ds.heading, tables[i].Title, msg)
			}
			checked++
		}
		lines := map[string]bool{}
		for _, l := range strings.Split(p.stdout, "\n") {
			lines[strings.TrimRight(l, " ")] = true
		}
		for _, l := range ds.fenced {
			if !lines[l] {
				t.Errorf("EXPERIMENTS.md %q: %s prints no line\n%s", ds.heading, ds.command, l)
			}
		}
	}
	if checked == 0 {
		t.Fatal("EXPERIMENTS.md has no table")
	}
}

// docSection is one "## " section of EXPERIMENTS.md.
type docSection struct {
	heading string
	command string       // the first `go run ./cmd/wire-bench …` it names
	tables  [][][]string // per table: the header row, then the rows
	fenced  []string     // the lines of its fenced blocks
}

var commandRE = regexp.MustCompile("`go run ./cmd/wire-bench([^`]*)`")

func docSections(md string) []docSection {
	var out []docSection
	var cur *docSection
	fenced, inTable := false, false
	for _, line := range strings.Split(md, "\n") {
		if strings.HasPrefix(line, "```") {
			fenced = !fenced
			continue
		}
		if !fenced && strings.HasPrefix(line, "## ") {
			out = append(out, docSection{heading: strings.TrimPrefix(line, "## ")})
			cur = &out[len(out)-1]
		}
		if cur == nil {
			continue
		}
		if fenced {
			if l := strings.TrimRight(line, " "); l != "" {
				cur.fenced = append(cur.fenced, l)
			}
			continue
		}
		if m := commandRE.FindStringSubmatch(line); m != nil && cur.command == "" {
			cur.command = "wire-bench" + m[1]
		}
		if !strings.HasPrefix(line, "|") {
			inTable = false
			continue
		}
		if strings.HasPrefix(line, "|---") {
			continue
		}
		if !inTable {
			cur.tables = append(cur.tables, nil)
			inTable = true
		}
		tbl := &cur.tables[len(cur.tables)-1]
		*tbl = append(*tbl, splitRow(line))
	}
	return out
}

// splitRow splits a markdown table row into its cells; `\|` is a literal
// bar inside a cell.
func splitRow(line string) []string {
	line = strings.ReplaceAll(strings.Trim(line, "|"), `\|`, "\x00")
	var cells []string
	for _, c := range strings.Split(line, "|") {
		cells = append(cells, strings.ReplaceAll(strings.TrimSpace(c), "\x00", "|"))
	}
	return cells
}

// parseCommand reads a doc command's seed and -only keys.
func parseCommand(command string) (seed int64, keys map[string]bool, err error) {
	fs := flag.NewFlagSet("wire-bench", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	only := fs.String("only", "", "")
	s := fs.Int64("seed", 1, "")
	if err := fs.Parse(strings.Fields(strings.TrimPrefix(command, "wire-bench"))); err != nil {
		return 0, nil, fmt.Errorf("%s: %v", command, err)
	}
	keys = map[string]bool{}
	if *only != "" {
		for _, k := range strings.Split(*only, ",") {
			keys[k] = true
		}
	}
	return *s, keys, nil
}

func hasColumns(t *report.Table, cols []string) bool {
	for _, c := range cols {
		if column(t, c) < 0 {
			return false
		}
	}
	return true
}

func column(t *report.Table, name string) int {
	for i, h := range t.Headers {
		if h == name {
			return i
		}
	}
	return -1
}

// compareTable holds a doc table (header row, then rows) to a section's
// table. A doc row is matched on its first k cells, for the least k that
// tells the section's rows apart. On a mismatch the last message is the
// replacement doc table.
func compareTable(doc [][]string, got *report.Table) []string {
	// The section's rows, on the doc table's columns.
	rows := make([][]string, len(got.Rows))
	for r, row := range got.Rows {
		for _, h := range doc[0] {
			rows[r] = append(rows[r], row[column(got, h)])
		}
	}
	key := func(row []string, k int) string { return strings.Join(row[:k], " ") }
	var byKey map[string][]string
	k := 1
	for ; k <= len(doc[0]); k++ {
		byKey = map[string][]string{}
		for _, row := range rows {
			byKey[key(row, k)] = row
		}
		if len(byKey) == len(rows) {
			break
		}
	}
	if k > len(doc[0]) {
		return []string{fmt.Sprintf("the columns %q do not tell the section's rows apart", doc[0])}
	}
	var msgs []string
	replacement := []string{"| " + strings.Join(escape(doc[0]), " | ") + " |", strings.Repeat("|---", len(doc[0])) + "|"}
	for _, row := range doc[1:] {
		if len(row) != len(doc[0]) {
			msgs = append(msgs, fmt.Sprintf("row %q has %d cells, the header %d", strings.Join(row, " | "), len(row), len(doc[0])))
			continue
		}
		want, ok := byKey[key(row, k)]
		if !ok {
			msgs = append(msgs, fmt.Sprintf("the section has no row %q", key(row, k)))
			continue
		}
		for i := range row {
			if row[i] != want[i] {
				msgs = append(msgs, fmt.Sprintf("row %q, column %q: EXPERIMENTS.md has %q, the section prints %q",
					key(row, k), doc[0][i], row[i], want[i]))
			}
		}
		replacement = append(replacement, "| "+strings.Join(escape(want), " | ")+" |")
	}
	if len(msgs) > 0 {
		msgs = append(msgs, "replacement table:\n"+strings.Join(replacement, "\n"))
	}
	return msgs
}

func escape(cells []string) []string {
	out := make([]string, len(cells))
	for i, c := range cells {
		out[i] = strings.ReplaceAll(c, "|", `\|`)
	}
	return out
}
