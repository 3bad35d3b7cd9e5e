// Package plot renders experiment results as standalone SVG documents
// using only the standard library — line/scatter charts for the Figure 2/3
// sweeps and Figure 4 CDFs, and grouped bar charts for Figures 5/6.
package plot

import (
	"fmt"
	"io"
	"math"
	"strings"
)

// palette is a small colour-blind-friendly cycle.
var palette = []string{"#4477aa", "#ee6677", "#228833", "#ccbb44", "#66ccee", "#aa3377", "#bbbbbb"}

func color(i int) string { return palette[i%len(palette)] }

// Series is one named line of (x, y) points.
type Series struct {
	Name string
	X    []float64
	Y    []float64
}

// Chart is a line chart with optional log axes.
type Chart struct {
	Title  string
	XLabel string
	YLabel string
	Series []Series
	LogX   bool
	LogY   bool
}

// Every chart is width × height pixels.
const (
	width   = 640
	height  = 400
	marginL = 70
	marginR = 20
	marginT = 40
	marginB = 50
)

// WriteSVG renders the chart.
func (c *Chart) WriteSVG(w io.Writer) error {
	var minX, maxX, minY, maxY float64
	first := true
	tx := func(v float64) float64 {
		if c.LogX {
			return math.Log10(v)
		}
		return v
	}
	ty := func(v float64) float64 {
		if c.LogY {
			return math.Log10(v)
		}
		return v
	}
	for _, s := range c.Series {
		for i := range s.X {
			x, y := tx(s.X[i]), ty(s.Y[i])
			if math.IsInf(x, 0) || math.IsNaN(x) || math.IsInf(y, 0) || math.IsNaN(y) {
				continue
			}
			if first {
				minX, maxX, minY, maxY = x, x, y, y
				first = false
				continue
			}
			minX, maxX = math.Min(minX, x), math.Max(maxX, x)
			minY, maxY = math.Min(minY, y), math.Max(maxY, y)
		}
	}
	if first {
		return fmt.Errorf("plot: chart %q has no finite points", c.Title)
	}
	if maxX == minX {
		maxX = minX + 1
	}
	if maxY == minY {
		maxY = minY + 1
	}
	// A little headroom on Y.
	pad := (maxY - minY) * 0.05
	minY -= pad
	maxY += pad

	plotW := float64(width - marginL - marginR)
	plotH := float64(height - marginT - marginB)
	px := func(v float64) float64 { return marginL + (tx(v)-minX)/(maxX-minX)*plotW }
	py := func(v float64) float64 { return float64(height-marginB) - (ty(v)-minY)/(maxY-minY)*plotH }

	var b strings.Builder
	header(&b, c.Title)
	axes(&b, c.XLabel, c.YLabel)

	// Ticks: 5 per axis in transformed space, labelled in data space.
	for i := 0; i <= 4; i++ {
		fx := minX + (maxX-minX)*float64(i)/4
		vx := fx
		if c.LogX {
			vx = math.Pow(10, fx)
		}
		x := marginL + plotW*float64(i)/4
		fmt.Fprintf(&b, `<line x1="%.1f" y1="%d" x2="%.1f" y2="%d" stroke="#ddd"/>`+"\n",
			x, marginT, x, height-marginB)
		fmt.Fprintf(&b, `<text x="%.1f" y="%d" font-size="11" text-anchor="middle">%s</text>`+"\n",
			x, height-marginB+16, fmtTick(vx))

		fy := minY + (maxY-minY)*float64(i)/4
		vy := fy
		if c.LogY {
			vy = math.Pow(10, fy)
		}
		y := float64(height-marginB) - plotH*float64(i)/4
		fmt.Fprintf(&b, `<line x1="%d" y1="%.1f" x2="%d" y2="%.1f" stroke="#ddd"/>`+"\n",
			marginL, y, width-marginR, y)
		fmt.Fprintf(&b, `<text x="%d" y="%.1f" font-size="11" text-anchor="end">%s</text>`+"\n",
			marginL-6, y+4, fmtTick(vy))
	}

	for si, s := range c.Series {
		var pts []string
		for i := range s.X {
			if s.X[i] <= 0 && c.LogX {
				continue
			}
			if s.Y[i] <= 0 && c.LogY {
				continue
			}
			pts = append(pts, fmt.Sprintf("%.1f,%.1f", px(s.X[i]), py(s.Y[i])))
		}
		if len(pts) == 0 {
			continue
		}
		fmt.Fprintf(&b, `<polyline fill="none" stroke="%s" stroke-width="2" points="%s"/>`+"\n",
			color(si), strings.Join(pts, " "))
		for _, p := range pts {
			xy := strings.Split(p, ",")
			fmt.Fprintf(&b, `<circle cx="%s" cy="%s" r="2.5" fill="%s"/>`+"\n", xy[0], xy[1], color(si))
		}
		// Legend entry.
		ly := marginT + 16*si
		fmt.Fprintf(&b, `<rect x="%d" y="%d" width="10" height="10" fill="%s"/>`+"\n",
			width-marginR-130, ly, color(si))
		fmt.Fprintf(&b, `<text x="%d" y="%d" font-size="11">%s</text>`+"\n",
			width-marginR-115, ly+9, escape(s.Name))
	}
	b.WriteString("</svg>\n")
	_, err := io.WriteString(w, b.String())
	return err
}

// BarGroup is one cluster of bars sharing an x label.
type BarGroup struct {
	Label  string
	Values []float64
}

// BarChart is a grouped bar chart (Figures 5/6: one group per charging
// unit, one bar per policy).
type BarChart struct {
	Title       string
	YLabel      string
	SeriesNames []string
	Groups      []BarGroup
	LogY        bool
}

// WriteSVG renders the bar chart.
func (c *BarChart) WriteSVG(w io.Writer) error {
	if len(c.Groups) == 0 || len(c.SeriesNames) == 0 {
		return fmt.Errorf("plot: bar chart %q is empty", c.Title)
	}
	ty := func(v float64) float64 {
		if c.LogY {
			if v <= 0 {
				return 0
			}
			return math.Log10(1 + v)
		}
		return v
	}
	maxY := 0.0
	for _, g := range c.Groups {
		for _, v := range g.Values {
			if ty(v) > maxY {
				maxY = ty(v)
			}
		}
	}
	if maxY == 0 {
		maxY = 1
	}
	plotW := float64(width - marginL - marginR)
	plotH := float64(height - marginT - marginB)

	var b strings.Builder
	header(&b, c.Title)
	axes(&b, "", c.YLabel)

	groupW := plotW / float64(len(c.Groups))
	barW := groupW * 0.8 / float64(len(c.SeriesNames))
	for gi, g := range c.Groups {
		gx := marginL + groupW*float64(gi)
		for si, v := range g.Values {
			if si >= len(c.SeriesNames) {
				break
			}
			h := ty(v) / maxY * plotH
			x := gx + groupW*0.1 + barW*float64(si)
			y := float64(height-marginB) - h
			fmt.Fprintf(&b, `<rect x="%.1f" y="%.1f" width="%.1f" height="%.1f" fill="%s"><title>%s=%.2f</title></rect>`+"\n",
				x, y, barW*0.9, h, color(si), escape(c.SeriesNames[si]), v)
		}
		fmt.Fprintf(&b, `<text x="%.1f" y="%d" font-size="11" text-anchor="middle">%s</text>`+"\n",
			gx+groupW/2, height-marginB+16, escape(g.Label))
	}
	for si, name := range c.SeriesNames {
		ly := marginT + 16*si
		fmt.Fprintf(&b, `<rect x="%d" y="%d" width="10" height="10" fill="%s"/>`+"\n",
			width-marginR-150, ly, color(si))
		fmt.Fprintf(&b, `<text x="%d" y="%d" font-size="11">%s</text>`+"\n",
			width-marginR-135, ly+9, escape(name))
	}
	b.WriteString("</svg>\n")
	_, err := io.WriteString(w, b.String())
	return err
}

func header(b *strings.Builder, title string) {
	fmt.Fprintf(b, `<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" viewBox="0 0 %d %d">`+"\n",
		width, height, width, height)
	fmt.Fprintf(b, `<rect width="%d" height="%d" fill="white"/>`+"\n", width, height)
	fmt.Fprintf(b, `<text x="%d" y="20" font-size="14" font-weight="bold">%s</text>`+"\n",
		marginL, escape(title))
}

func axes(b *strings.Builder, xlabel, ylabel string) {
	fmt.Fprintf(b, `<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="black"/>`+"\n",
		marginL, height-marginB, width-marginR, height-marginB)
	fmt.Fprintf(b, `<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="black"/>`+"\n",
		marginL, marginT, marginL, height-marginB)
	if xlabel != "" {
		fmt.Fprintf(b, `<text x="%d" y="%d" font-size="12" text-anchor="middle">%s</text>`+"\n",
			(marginL+width-marginR)/2, height-12, escape(xlabel))
	}
	if ylabel != "" {
		fmt.Fprintf(b, `<text x="14" y="%d" font-size="12" text-anchor="middle" transform="rotate(-90 14 %d)">%s</text>`+"\n",
			(marginT+height-marginB)/2, (marginT+height-marginB)/2, escape(ylabel))
	}
}

func fmtTick(v float64) string {
	av := math.Abs(v)
	switch {
	case av >= 1000:
		return fmt.Sprintf("%.0f", v)
	case av >= 10:
		return fmt.Sprintf("%.1f", v)
	default:
		return fmt.Sprintf("%.2f", v)
	}
}

func escape(s string) string {
	r := strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;", `"`, "&quot;")
	return r.Replace(s)
}
