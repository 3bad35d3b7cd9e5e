// Package trace records and renders run traces: a Recorder hooks into the
// execution simulator's observer callback and the package renders the
// result as CSV (for external analysis) or as a text Gantt chart of slot
// occupancy per instance — the visual the paper's pool-elasticity story is
// about.
package trace

import (
	"encoding/csv"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"repro/internal/cloud"
	"repro/internal/sim"
	"repro/internal/simtime"
)

// Recorder accumulates simulator events. Install with Hook().
type Recorder struct {
	Events []sim.Event
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder { return &Recorder{} }

// Hook returns the observer callback to place in sim.Config.Observer.
func (r *Recorder) Hook() func(sim.Event) {
	return func(ev sim.Event) { r.Events = append(r.Events, ev) }
}

// CountByKind tallies recorded events.
func (r *Recorder) CountByKind() map[sim.EventKind]int {
	m := make(map[sim.EventKind]int)
	for _, ev := range r.Events {
		m[ev.Kind]++
	}
	return m
}

// WriteCSV dumps the raw event stream.
func (r *Recorder) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"time_s", "kind", "task", "instance", "launch", "released"}); err != nil {
		return err
	}
	for _, ev := range r.Events {
		rec := []string{
			strconv.FormatFloat(ev.Time, 'f', 3, 64),
			ev.Kind.String(),
			itoaOrDash(int(ev.Task)),
			itoaOrDash(int(ev.Instance)),
			strconv.Itoa(ev.Launch),
			strconv.Itoa(ev.Released),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

func itoaOrDash(v int) string {
	if v < 0 {
		return "-"
	}
	return strconv.Itoa(v)
}

// Gantt renders per-instance slot occupancy over time from a run result:
// one row per instance, width columns across the makespan, with each cell
// showing how many tasks the instance was running ('.' idle, digits for
// occupancy, ' ' before launch / after termination).
func Gantt(res *sim.Result, width int) string {
	if width <= 0 || res.Makespan <= 0 || len(res.TaskRuns) == 0 {
		return ""
	}
	type span struct{ start, end simtime.Time }
	byInst := map[cloud.InstanceID][]span{}
	for _, tr := range res.TaskRuns {
		byInst[tr.Instance] = append(byInst[tr.Instance], span{tr.Start, tr.End})
	}
	ids := make([]cloud.InstanceID, 0, len(byInst))
	for id := range byInst {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })

	var b strings.Builder
	step := res.Makespan / float64(width)
	fmt.Fprintf(&b, "slot occupancy per instance; column = %s, rows = instances\n",
		simtime.FormatDuration(step))
	for _, id := range ids {
		fmt.Fprintf(&b, "i%-3d |", int(id))
		spans := byInst[id]
		var first, last simtime.Time = res.Makespan, 0
		for _, s := range spans {
			if s.start < first {
				first = s.start
			}
			if s.end > last {
				last = s.end
			}
		}
		for c := 0; c < width; c++ {
			lo := float64(c) * step
			hi := lo + step
			mid := (lo + hi) / 2
			n := 0
			for _, s := range spans {
				if s.start <= mid && mid < s.end {
					n++
				}
			}
			switch {
			case n > 9:
				b.WriteByte('#')
			case n > 0:
				b.WriteByte(byte('0' + n))
			case mid >= first && mid <= last:
				b.WriteByte('.')
			default:
				b.WriteByte(' ')
			}
		}
		b.WriteString("|\n")
	}
	return b.String()
}

// PoolSparkline renders the held-pool timeline as a one-line sparkline.
func PoolSparkline(res *sim.Result, width int) string {
	if width <= 0 || res.Makespan <= 0 || len(res.Pool) == 0 {
		return ""
	}
	glyphs := []rune(" ▁▂▃▄▅▆▇█")
	maxHeld := 1
	for _, s := range res.Pool {
		if s.Held > maxHeld {
			maxHeld = s.Held
		}
	}
	heldAt := func(t simtime.Time) int {
		held := 0
		for _, s := range res.Pool {
			if s.Time > t {
				break
			}
			held = s.Held
		}
		return held
	}
	var b strings.Builder
	for c := 0; c < width; c++ {
		t := res.Makespan * (float64(c) + 0.5) / float64(width)
		h := heldAt(t)
		idx := 0
		if maxHeld > 0 {
			idx = h * (len(glyphs) - 1) / maxHeld
		}
		b.WriteRune(glyphs[idx])
	}
	return b.String()
}
