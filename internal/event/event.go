// Package event provides the discrete-event engine underneath the cluster
// and lookahead simulators.
//
// The engine maintains a future event list ordered by (time, priority,
// sequence). Handlers run synchronously; they may schedule further events.
// Determinism matters for reproducible experiments, so ties are broken by a
// caller-supplied priority and then by insertion order.
package event

import (
	"fmt"

	"repro/internal/simtime"
)

// Handler is the action executed when an event fires. The engine passes
// itself so handlers can schedule follow-up events, and the fire time.
type Handler func(e *Engine, now simtime.Time)

// Priority orders events that fire at the same instant. Lower values run
// first. The cluster simulator uses this to guarantee, e.g., that instance
// activations are processed before the control tick of the same instant.
type Priority int

// Standard priorities used across the simulators. Task completions must
// fire before instance terminations at the same instant: a task finishing
// exactly at its instance's charging boundary has completed, not been
// killed.
const (
	PriInstance  Priority = 0 // instance activations
	PriTask      Priority = 1 // task completions
	PriTerminate Priority = 2 // instance terminations
	PriControl   Priority = 3 // MAPE control ticks
)

// Event is a scheduled occurrence. It is exposed so callers can cancel
// pending events.
type Event struct {
	time     simtime.Time
	handler  Handler
	index    int // heap index, -1 once removed
	canceled bool
	name     string
}

// Engine is a discrete-event simulation driver. The zero value is not
// usable; call New.
type Engine struct {
	now     simtime.Time
	queue   []entry // binary min-heap under (time, priority, seq)
	nextSeq uint64
	fired   uint64
	// MaxEvents bounds the number of events processed by Run as a guard
	// against runaway simulations. Zero means no bound.
	MaxEvents uint64

	// Events are allocated from chunked slabs so a simulation costs one
	// allocation per arenaChunk events instead of one per event.
	chunks [][]Event
	inUse  int // events handed out
}

// arenaChunk is the slab granularity of the event arena.
const arenaChunk = 256

// alloc hands out the next event slot from the arena, growing it by one
// chunk when exhausted.
func (e *Engine) alloc() *Event {
	ci := e.inUse / arenaChunk
	if ci == len(e.chunks) {
		e.chunks = append(e.chunks, make([]Event, arenaChunk))
	}
	ev := &e.chunks[ci][e.inUse%arenaChunk]
	e.inUse++
	return ev
}

// New returns an engine whose clock starts at zero.
func New() *Engine {
	return &Engine{}
}

// At schedules h to run at absolute time t with the given priority and a
// diagnostic name. Scheduling in the past panics: it always indicates a
// simulator bug, and silently clamping would corrupt causality.
func (e *Engine) At(t simtime.Time, pri Priority, name string, h Handler) *Event {
	if simtime.Before(t, e.now) {
		panic(fmt.Sprintf("event: scheduling %q at %v before now %v", name, t, e.now))
	}
	if t < e.now {
		t = e.now // within tolerance: clamp to now
	}
	ev := e.alloc()
	ev.time, ev.handler, ev.name = t, h, name
	e.push(entry{time: t, priority: pri, seq: e.nextSeq, ev: ev})
	e.nextSeq++
	return ev
}

// Cancel marks a pending event so it will not fire. Canceling an already
// fired or already canceled event is a no-op.
func (e *Engine) Cancel(ev *Event) {
	if ev == nil || ev.canceled || ev.index < 0 {
		if ev != nil {
			ev.canceled = true
		}
		return
	}
	ev.canceled = true
	e.remove(ev.index)
}

// Step fires the next pending event. It reports false when the queue is
// empty.
func (e *Engine) Step() bool {
	for len(e.queue) > 0 {
		ev := e.remove(0)
		if ev.canceled {
			continue
		}
		e.now = ev.time
		e.fired++
		h := ev.handler
		ev.handler = nil // release the closure as soon as it has fired
		h(e, e.now)
		return true
	}
	return false
}

// RunUntil fires events whose time is at or before horizon. A negative
// horizon means run to completion. The clock ends at the later of its
// current value and the last fired event (it does not jump to the horizon).
func (e *Engine) RunUntil(horizon simtime.Time) error {
	for len(e.queue) > 0 {
		next := e.queue[0].ev
		if e.MaxEvents > 0 && e.fired >= e.MaxEvents {
			return fmt.Errorf("event: exceeded MaxEvents=%d at t=%v (next %q)", e.MaxEvents, e.now, next.name)
		}
		if next.canceled {
			e.remove(0)
			continue
		}
		if horizon >= 0 && simtime.After(next.time, horizon) {
			return nil
		}
		e.Step()
	}
	return nil
}

// entry is one heap slot: the event's sort key held inline, so sifting
// compares without chasing the pointer, and the event it orders.
type entry struct {
	time     simtime.Time
	priority Priority
	seq      uint64
	ev       *Event
}

// less orders by (time, priority, seq). seq is unique per event, so the
// order is total and every correct heap fires the same sequence.
func (a *entry) less(b *entry) bool {
	if a.time != b.time {
		return a.time < b.time
	}
	if a.priority != b.priority {
		return a.priority < b.priority
	}
	return a.seq < b.seq
}

// set stores en at heap index i and records the index in its event.
func (e *Engine) set(i int, en entry) {
	e.queue[i] = en
	en.ev.index = i
}

func (e *Engine) push(en entry) {
	e.queue = append(e.queue, en)
	e.up(len(e.queue) - 1)
}

// remove takes the entry at heap index i out of the queue and returns its
// event, marked as no longer queued.
func (e *Engine) remove(i int) *Event {
	ev := e.queue[i].ev
	n := len(e.queue) - 1
	last := e.queue[n]
	e.queue[n] = entry{}
	e.queue = e.queue[:n]
	if i < n {
		e.set(i, last)
		if !e.down(i) {
			e.up(i)
		}
	}
	ev.index = -1
	return ev
}

// up sifts the entry at index j toward the root.
func (e *Engine) up(j int) {
	en := e.queue[j]
	for j > 0 {
		i := (j - 1) / 2
		if !en.less(&e.queue[i]) {
			break
		}
		e.set(j, e.queue[i])
		j = i
	}
	e.set(j, en)
}

// down sifts the entry at index i toward the leaves and reports whether it
// moved.
func (e *Engine) down(i0 int) bool {
	n := len(e.queue)
	en := e.queue[i0]
	i := i0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		j := l
		if r := l + 1; r < n && e.queue[r].less(&e.queue[l]) {
			j = r
		}
		if !e.queue[j].less(&en) {
			break
		}
		e.set(i, e.queue[j])
		i = j
	}
	e.set(i, en)
	return i > i0
}
