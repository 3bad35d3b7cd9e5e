package main

import (
	"os"
	"strings"
	"testing"
)

// EXPERIMENTS.md's E10 table is the tenancy section's output at -seed 42,
// cell for cell on the columns it shows.
func TestExperimentsE10MatchesTenancySection(t *testing.T) {
	raw, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	_, e10, ok := strings.Cut(string(raw), "\n## E10 ")
	if !ok {
		t.Fatal("EXPERIMENTS.md has no E10 section")
	}
	var doc [][]string // header, then rows
	for _, line := range strings.Split(e10, "\n") {
		if !strings.HasPrefix(line, "|") {
			if len(doc) > 0 {
				break
			}
			continue
		}
		if strings.HasPrefix(line, "|---") {
			continue
		}
		var cells []string
		for _, c := range strings.Split(strings.Trim(line, "|"), "|") {
			cells = append(cells, strings.TrimSpace(c))
		}
		doc = append(doc, cells)
	}
	if len(doc) < 2 {
		t.Fatal("E10 has no table")
	}

	got, err := tenancySweep(42, 0)
	if err != nil {
		t.Fatal(err)
	}
	col := map[string]int{}
	for i, h := range got.Headers {
		col[h] = i
	}
	if len(doc)-1 != len(got.Rows) {
		t.Fatalf("E10 shows %d rows, the section prints %d", len(doc)-1, len(got.Rows))
	}
	for _, h := range doc[0] {
		if _, ok := col[h]; !ok {
			t.Fatalf("E10 column %q is not a column of the section", h)
		}
	}
	for r, row := range doc[1:] {
		for c, cell := range row {
			if want := got.Rows[r][col[doc[0][c]]]; cell != want {
				t.Errorf("E10 row %d column %s: EXPERIMENTS.md has %q, the section prints %q", r+1, doc[0][c], cell, want)
			}
		}
	}
}
