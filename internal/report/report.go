// Package report renders experiment output as aligned text tables, CSV, and
// small ASCII CDF sketches. The text tables are the repository's one
// rendering of the paper's tables and figures.
package report

import (
	"encoding/csv"
	"fmt"
	"io"
	"strings"
	"unicode/utf8"

	"repro/internal/stats"
)

// Table is a titled grid of cells.
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
}

// AddRow appends one row; cells are converted with fmt.Sprint.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		row[i] = fmt.Sprint(c)
	}
	t.Rows = append(t.Rows, row)
}

// Render writes the table as aligned text. Cells are padded by display width
// (one column per rune), so a "±" or "µs" cell lines up like an ASCII one.
func (t *Table) Render(w io.Writer) error {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = utf8.RuneCountInString(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if n := utf8.RuneCountInString(c); i < len(widths) && n > widths[i] {
				widths[i] = n
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		b.WriteString(t.Title)
		b.WriteByte('\n')
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(c)
			if i < len(widths) {
				for p := utf8.RuneCountInString(c); p < widths[i]; p++ {
					b.WriteByte(' ')
				}
			}
		}
		b.WriteByte('\n')
	}
	writeRow(t.Headers)
	sep := make([]string, len(t.Headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.Rows {
		writeRow(row)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// WriteCSV writes the table as CSV (headers first; the title is omitted).
func (t *Table) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(t.Headers); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// F formats a float with the given precision, trimming trailing zeros.
func F(v float64, prec int) string {
	s := fmt.Sprintf("%.*f", prec, v)
	if !strings.Contains(s, ".") {
		return s
	}
	s = strings.TrimRight(s, "0")
	return strings.TrimRight(s, ".")
}

// MeanStd formats "mean ± std".
func MeanStd(mean, std float64, prec int) string {
	return F(mean, prec) + " ± " + F(std, prec)
}

// Ratio formats a multiplier like "1.25x".
func Ratio(v float64) string { return F(v, 2) + "x" }

// CDFSketch renders an empirical CDF as a fixed-width ASCII strip: one
// character per quantile band, showing where the distribution mass sits
// inside [lo, hi]. Used to eyeball the Figure 4 CDFs in terminal output.
func CDFSketch(c *stats.CDF, lo, hi float64, width int) string {
	if width <= 0 || c == nil || c.Len() == 0 {
		return ""
	}
	var b strings.Builder
	for i := 0; i < width; i++ {
		x := lo + (hi-lo)*float64(i+1)/float64(width)
		p := c.P(x)
		b.WriteByte(" .:-=+*#%@"[int(p*9.999)])
	}
	return b.String()
}
