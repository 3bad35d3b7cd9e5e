package report

import (
	"bytes"
	"strings"
	"testing"
	"unicode/utf8"

	"repro/internal/stats"
)

func TestTableRender(t *testing.T) {
	tab := &Table{Title: "Demo", Headers: []string{"name", "value"}}
	tab.AddRow("alpha", 1)
	tab.AddRow("b", 22.5)
	var buf bytes.Buffer
	if err := tab.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Demo", "name", "alpha", "22.5", "-----"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 { // title, header, sep, 2 rows
		t.Fatalf("line count = %d:\n%s", len(lines), out)
	}
	// Columns align: every data line's second column starts at the same
	// offset.
	idx := strings.Index(lines[1], "value")
	if strings.Index(lines[3], "1") < idx {
		t.Fatalf("misaligned:\n%s", out)
	}
}

// TestTableRenderPadsByDisplayWidth: a multi-byte cell ("±", "µs") in a
// column that is not the last pads to the same display width as an ASCII
// one, so the next column starts at the same rune offset on every line.
func TestTableRenderPadsByDisplayWidth(t *testing.T) {
	tab := &Table{Headers: []string{"wall", "cost", "run"}}
	tab.AddRow("756µs", MeanStd(1.25, 0.5, 2), "a")
	tab.AddRow("6.945ms", "12.5", "b")
	var buf bytes.Buffer
	if err := tab.Render(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	col := func(line, cell string) int { return utf8.RuneCountInString(line[:strings.Index(line, cell)]) }
	want := col(lines[0], "run")
	for i, cell := range []string{"a", "b"} {
		if got := col(lines[2+i], cell); got != want {
			t.Errorf("row %d: last column starts at rune %d, header at %d:\n%s", i, got, want, buf.String())
		}
	}
	if got, want := col(lines[2], "1.25"), col(lines[0], "cost"); got != want {
		t.Errorf("cost column starts at rune %d after a µs cell, header at %d:\n%s", got, want, buf.String())
	}
}

func TestTableCSV(t *testing.T) {
	tab := &Table{Headers: []string{"a", "b"}}
	tab.AddRow("x,y", 2) // comma must be quoted
	var buf bytes.Buffer
	if err := tab.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.HasPrefix(out, "a,b\n") || !strings.Contains(out, `"x,y",2`) {
		t.Fatalf("csv = %q", out)
	}
}

func TestFormatters(t *testing.T) {
	if F(1.500, 2) != "1.5" {
		t.Fatalf("F = %q", F(1.500, 2))
	}
	if F(2.0, 2) != "2" {
		t.Fatalf("F = %q", F(2.0, 2))
	}
	if F(3, 0) != "3" {
		t.Fatalf("F = %q", F(3, 0))
	}
	if MeanStd(1.25, 0.5, 2) != "1.25 ± 0.5" {
		t.Fatalf("MeanStd = %q", MeanStd(1.25, 0.5, 2))
	}
	if Ratio(1.5) != "1.5x" {
		t.Fatalf("Ratio = %q", Ratio(1.5))
	}
}

func TestCDFSketch(t *testing.T) {
	c := stats.NewCDF([]float64{0, 0, 0, 10, 10, 10})
	s := CDFSketch(c, -1, 11, 12)
	if len(s) != 12 {
		t.Fatalf("sketch len = %d", len(s))
	}
	// Mass accumulates: last char must be the densest glyph.
	if s[len(s)-1] != '@' {
		t.Fatalf("sketch = %q", s)
	}
	if CDFSketch(nil, 0, 1, 10) != "" || CDFSketch(c, 0, 1, 0) != "" {
		t.Fatal("degenerate sketches should be empty")
	}
}
