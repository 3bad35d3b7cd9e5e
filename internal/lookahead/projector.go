package lookahead

import (
	"slices"

	"repro/internal/cloud"
	"repro/internal/dag"
	"repro/internal/monitor"
	"repro/internal/predict"
	"repro/internal/simtime"
)

// EpochEstimator is an Estimator whose answers carry cache-invalidation
// epochs, letting a Projector memoize per-task estimates across MAPE
// intervals. agg must change whenever anything feeding a stage's estimates
// other than its regression model changes (stage aggregates, size groups,
// the global transfer estimate); model must change whenever the stage's OGD
// coefficients change. *predict.Predictor satisfies it.
type EpochEstimator interface {
	Estimator
	EstimateEpochs(stage dag.StageID) (agg, model uint64)
}

// stateUnseen marks tasks the projector has not observed yet; it compares
// unequal to every real monitor.TaskState, so the first pass after a reset
// treats every task as freshly transitioned.
const stateUnseen = monitor.TaskState(-1)

// Projector runs the §III-B2 lookahead projection incrementally: one
// Projector is pinned to a session (one workflow run) and carries state
// between MAPE intervals so each Project call only pays for what the new
// snapshot invalidated:
//
//   - dependency wait-counts are maintained by completion deltas instead of
//     re-walking every task's dependency list (O(completions·succs) per
//     interval instead of O(edges));
//   - per-task occupancy estimates are memoized and recomputed only when the
//     task's state or its stage's predictor epochs changed (EpochEstimator);
//   - the snapshot's Ready tasks are kept in FIFO order across calls: each
//     call drops the tasks that left and merges in the sorted arrivals, and
//     the projection reads the backlog front to back, with a small heap
//     holding only the tasks it readies itself;
//   - every simulation buffer — task scratch, instance table, ready queue,
//     event queue, the Load output itself — is reused across calls.
//
// Any non-monotonic snapshot (a task leaving Completed, a different
// workflow) resets the incremental state; correctness never depends on the
// snapshot sequence being well-formed.
//
// The returned *Load is double-buffered: it remains valid until the
// next-but-one Project call on the same Projector, so a caller may keep the
// latest Load while requesting the next. Projectors are not safe for
// concurrent use.
type Projector struct {
	wf      *dag.Workflow
	lastEst Estimator

	// Persistent incremental state, indexed by TaskID.
	waiting   []int32 // dependencies not yet observed Completed
	lastState []monitor.TaskState

	// Memoized estimates, indexed by TaskID; valid while the task state and
	// the stage epochs recorded at fill time still hold.
	estVal   []float64
	estPol   []predict.Policy
	estAgg   []uint64
	estModel []uint64

	// The Ready backlog: the last snapshot's Ready tasks in (readyAt, id)
	// order, carried across calls, so a task is a member exactly when its
	// lastState is Ready. backAt holds the ReadyAt each member was filed
	// under; fresh collects the delta pass's arrivals (newly Ready, or
	// requeued under a new ReadyAt) and stale records that some member left
	// or was refiled. spare is the merge buffer.
	backlog []dag.TaskID
	spare   []dag.TaskID
	backAt  []simtime.Time
	fresh   []dag.TaskID
	stale   bool

	// Per-call scratch, reused.
	tasks      []projTask
	instArena  []projInst
	insts      []*projInst
	runArena   []dag.TaskID
	instByID   map[cloud.InstanceID]*projInst
	head       int        // backlog cursor: entries before it are dispatched
	ready      readyQueue // tasks readied inside the projection
	evq        eventQueue
	stageAgg   []uint64
	stageModel []uint64
	harvestIDs []dag.TaskID

	// Double-buffered output.
	out    [2]Load
	outIdx int
}

// reset re-pins the projector to wf and discards all incremental state.
// waiting starts at the full dependency count and lastState at stateUnseen,
// so the next pass observes every completed task as a fresh transition and
// decrements its successors exactly once — initialization and steady-state
// share one code path.
func (p *Projector) reset(wf *dag.Workflow) {
	p.wf = wf
	n := wf.NumTasks()
	p.waiting = resize(p.waiting, n)
	p.lastState = resize(p.lastState, n)
	p.estVal = resize(p.estVal, n)
	p.estPol = resize(p.estPol, n)
	p.estAgg = resize(p.estAgg, n)
	p.estModel = resize(p.estModel, n)
	p.tasks = resize(p.tasks, n)
	p.backAt = resize(p.backAt, n)
	p.backlog, p.fresh, p.stale = p.backlog[:0], p.fresh[:0], false
	for _, t := range wf.Tasks {
		p.waiting[t.ID] = int32(len(t.Deps))
		p.lastState[t.ID] = stateUnseen
	}
}

// resize returns s with length n, reusing capacity when possible.
func resize[T any](s []T, n int) []T {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]T, n)
}

// Project simulates one interval ahead. It never mutates the snapshot.
// The semantics are identical to the package-level Project; only the cost
// profile differs.
func (p *Projector) Project(snap *monitor.Snapshot, est Estimator) *Load {
	now := snap.Now
	horizon := now + snap.Interval
	wf := snap.Workflow

	if p.wf != wf || len(p.waiting) != wf.NumTasks() {
		p.reset(wf)
	}
	refreshAll := p.lastEst != est
	p.lastEst = est
	ee, hasEpochs := est.(EpochEstimator)
	if hasEpochs {
		ns := wf.NumStages()
		p.stageAgg = resize(p.stageAgg, ns)
		p.stageModel = resize(p.stageModel, ns)
		for _, st := range wf.Stages {
			p.stageAgg[st.ID], p.stageModel[st.ID] = ee.EstimateEpochs(st.ID)
		}
	}

	// Delta pass: fold the snapshot's new completions into the persistent
	// wait-counts, refresh invalidated estimates, and fill the simulation
	// scratch. A task leaving Completed means the snapshot sequence is not
	// monotonic (a different run, a rolled-back substrate): reset and rerun
	// the pass once — the fresh state absorbs the full snapshot.
	for pass := 0; ; pass++ {
		if p.deltaPass(snap, est, hasEpochs, refreshAll) || pass == 1 {
			break
		}
		p.reset(wf)
	}
	p.ready.reset(p.tasks)
	p.refile()
	p.head = 0

	// Capacity: non-draining instances, including pending ones that
	// activate within the interval. Instance scratch is rebuilt per call
	// (the set is small and changes with every scaling decision), but from
	// reused buffers.
	p.instArena = p.instArena[:0]
	if cap(p.instArena) < len(snap.Instances) {
		p.instArena = make([]projInst, 0, len(snap.Instances))
	}
	p.insts = p.insts[:0]
	if p.instByID == nil {
		p.instByID = make(map[cloud.InstanceID]*projInst)
	} else {
		clear(p.instByID)
	}
	slotTotal := 0
	for _, in := range snap.Instances {
		if !in.Draining {
			slotTotal += in.Slots
		}
	}
	p.runArena = resize(p.runArena, slotTotal)
	off := 0
	for _, in := range snap.Instances {
		if in.Draining {
			continue
		}
		p.instArena = append(p.instArena, projInst{
			id:       in.ID,
			slots:    in.Slots,
			free:     in.Slots - len(in.Running),
			activeAt: in.ActiveAt,
			running:  p.runArena[off:off:min(off+in.Slots, slotTotal)],
		})
		off += in.Slots
		pi := &p.instArena[len(p.instArena)-1]
		pi.running = append(pi.running, in.Running...)
		p.insts = append(p.insts, pi)
		p.instByID[in.ID] = pi
	}
	// Insertion sort by ID: the fleet is small and IDs are unique, so this
	// matches any comparison sort and allocates nothing.
	for i := 1; i < len(p.insts); i++ {
		for j := i; j > 0 && p.insts[j].id < p.insts[j-1].id; j-- {
			p.insts[j], p.insts[j-1] = p.insts[j-1], p.insts[j]
		}
	}

	// The event clock starts at zero, mirroring the engine the one-shot
	// projection historically ran on: times are shifted by -now at
	// scheduling and shifted back when fired, keeping the float arithmetic
	// (and hence tie-breaking) bit-identical to the legacy path.
	shift := func(t simtime.Time) simtime.Time {
		d := t - now
		if d < 0 {
			d = 0
		}
		return d
	}
	p.evq.reset()

	completions := 0

	// Seed: running tasks complete when their predicted remaining occupancy
	// elapses (conservative minimum — possibly immediately). Under Policy 2
	// (running peers only, nothing completed yet) the full estimate counts
	// as remaining: with zero completions the median elapsed run time is
	// the floor on future occupancy too, which is what drives the §III-E
	// growth schedule.
	for _, in := range snap.Instances {
		if in.Draining {
			continue
		}
		for _, tid := range in.Running {
			rec := snap.Task(tid)
			pt := &p.tasks[tid]
			pt.state = monitor.Running
			pt.startedAt = rec.StartedAt
			pt.inst = in.ID
			rem := pt.est - rec.Elapsed
			if pt.pol == predict.PolicyRunningMedian {
				rem = pt.est
			}
			if rem < 0 {
				rem = 0
			}
			end := now + rem
			if simtime.AtOrBefore(end, horizon) {
				p.evq.push(projEvent{time: shift(end), pri: priComplete, id: tid})
			}
		}
	}
	// Pending instances activating within the interval trigger dispatch.
	for _, pi := range p.insts {
		if simtime.After(pi.activeAt, now) && simtime.AtOrBefore(pi.activeAt, horizon) {
			p.evq.push(projEvent{time: shift(pi.activeAt), pri: priActivate})
		}
	}

	p.dispatch(now, horizon, shift)
	// Drain all events inside the interval; completion handlers only
	// schedule within the horizon, so the queue terminates.
	for p.evq.len() > 0 {
		ev := p.evq.pop()
		switch ev.pri {
		case priActivate:
			p.dispatch(ev.time+now, horizon, shift)
		case priComplete:
			completions += p.complete(ev.id, ev.time+now, horizon, shift)
		}
	}

	// Harvest Q_task and restart costs at the horizon into the double
	// buffer; the previous call's Load stays untouched.
	out := &p.out[p.outIdx]
	p.outIdx = 1 - p.outIdx
	out.At = horizon
	out.Tasks = out.Tasks[:0]
	if out.RestartCost == nil {
		out.RestartCost = make(map[cloud.InstanceID]float64)
	} else {
		clear(out.RestartCost)
	}
	out.ProjectedCompletions = completions
	// Sunk costs are conservative: every task running at the snapshot is
	// assumed to still hold its slot at the horizon. Trusting a predicted
	// completion here would zero the restart cost of a busy instance and
	// let the steering policy kill work that is merely *expected* to
	// finish — with an optimistic early-stage estimate that causes
	// release/relaunch flapping.
	for _, in := range snap.Instances {
		if in.Draining {
			continue
		}
		c := 0.0
		for _, tid := range in.Running {
			if v := snap.Task(tid).Elapsed + snap.Interval; v > c {
				c = v
			}
		}
		out.RestartCost[in.ID] = c
	}
	// Running tasks first, in instance order.
	for _, pi := range p.insts {
		ids := append(p.harvestIDs[:0], pi.running...)
		slices.Sort(ids)
		for _, id := range ids {
			pt := &p.tasks[id]
			var consumed, rem float64
			if simtime.AtOrAfter(pt.startedAt, now) {
				// Started during the projection.
				consumed = horizon - pt.startedAt
				rem = pt.est - consumed
			} else {
				rec := snap.Task(id)
				consumed = rec.Elapsed + snap.Interval
				rem = pt.est - rec.Elapsed - snap.Interval
			}
			if pt.pol == predict.PolicyRunningMedian {
				rem = pt.est
			}
			if rem < 0 {
				rem = 0
			}
			out.Tasks = append(out.Tasks, TaskLoad{Task: id, Remaining: rem, Running: true})
			if c, ok := out.RestartCost[pi.id]; ok && consumed > c {
				out.RestartCost[pi.id] = consumed
			}
		}
		p.harvestIDs = ids[:0]
	}
	// Then the undispatched backlog in FIFO order.
	for {
		id, ok := p.popReady()
		if !ok {
			break
		}
		out.Tasks = append(out.Tasks, TaskLoad{Task: id, Remaining: p.tasks[id].est})
	}
	if len(out.Tasks) == 0 {
		// Match the cold-start shape (nil, not a drained buffer), so an
		// incremental projection is indistinguishable — byte for byte —
		// from a from-scratch one.
		out.Tasks = nil
	}
	return out
}

// deltaPass folds one snapshot into the persistent state and fills the
// simulation scratch. It reports false when it found a task that left
// Completed (the caller must reset and rerun); the wait-count decrements
// applied before the detection are discarded by that reset.
func (p *Projector) deltaPass(snap *monitor.Snapshot, est Estimator, hasEpochs, refreshAll bool) bool {
	wf := snap.Workflow
	for _, t := range wf.Tasks {
		i := t.ID
		rec := snap.Task(i)
		cur := rec.State
		prev := p.lastState[i]
		if prev == monitor.Completed && cur != monitor.Completed {
			return false
		}
		if cur == monitor.Completed && prev != monitor.Completed {
			for _, s := range t.Succs {
				p.waiting[s]--
			}
		}
		p.lastState[i] = cur

		if cur == monitor.Ready {
			if prev != monitor.Ready || p.backAt[i] != rec.ReadyAt {
				p.stale = p.stale || prev == monitor.Ready
				p.fresh = append(p.fresh, i)
			}
		} else if prev == monitor.Ready {
			p.stale = true
		}

		pt := &p.tasks[i]
		pt.state = cur
		pt.readyAt = rec.ReadyAt
		pt.startedAt = 0
		pt.inst = 0
		if cur == monitor.Completed {
			pt.waiting = 0
			pt.est = 0
			pt.pol = predict.PolicyNone
			continue
		}
		pt.waiting = int(p.waiting[i])
		// A model-epoch change invalidates regardless of the memoized
		// policy: the policy *choice* may itself flip with the model (a
		// stage whose regressor just crossed its training threshold moves
		// from group-median to OGD), so conditioning on the cached policy
		// would keep serving the stale non-OGD answer.
		if !hasEpochs || refreshAll || prev != cur ||
			p.estAgg[i] != p.stageAgg[t.Stage] ||
			p.estModel[i] != p.stageModel[t.Stage] {
			p.estVal[i], p.estPol[i] = est.EstimateOccupancy(snap, i)
			if hasEpochs {
				p.estAgg[i] = p.stageAgg[t.Stage]
				p.estModel[i] = p.stageModel[t.Stage]
			}
		}
		pt.est = p.estVal[i]
		pt.pol = p.estPol[i]
	}
	return true
}

// refile brings the backlog up to the snapshot the delta pass just read:
// members no longer Ready, or Ready under a new ReadyAt, leave, and the
// fresh arrivals are sorted and merged in.
func (p *Projector) refile() {
	if p.stale {
		kept := p.backlog[:0]
		for _, id := range p.backlog {
			if pt := &p.tasks[id]; pt.state == monitor.Ready && pt.readyAt == p.backAt[id] {
				kept = append(kept, id)
			}
		}
		p.backlog, p.stale = kept, false
	}
	if len(p.fresh) == 0 {
		return
	}
	slices.SortFunc(p.fresh, p.ready.cmp)
	for _, id := range p.fresh {
		p.backAt[id] = p.tasks[id].readyAt
	}
	if n := len(p.backlog); n == 0 || p.ready.less(p.backlog[n-1], p.fresh[0]) {
		// Arrivals usually all sort after the backlog: no merge needed.
		p.backlog = append(p.backlog, p.fresh...)
	} else {
		merged := p.spare[:0]
		b, f := p.backlog, p.fresh
		for len(b) > 0 && len(f) > 0 {
			if p.ready.less(f[0], b[0]) {
				merged, f = append(merged, f[0]), f[1:]
			} else {
				merged, b = append(merged, b[0]), b[1:]
			}
		}
		merged = append(append(merged, b...), f...)
		p.spare, p.backlog = p.backlog[:0], merged
	}
	p.fresh = p.fresh[:0]
}

// popReady dequeues the next task to dispatch: the earlier, in (readyAt,
// id) order, of the backlog's head and the in-projection heap's head. A
// backlog member that is no longer Ready (listed running by an instance
// although its record says Ready) is passed over, as the one-heap
// projection never queued it.
func (p *Projector) popReady() (dag.TaskID, bool) {
	for p.head < len(p.backlog) && p.tasks[p.backlog[p.head]].state != monitor.Ready {
		p.head++
	}
	if p.head < len(p.backlog) {
		id := p.backlog[p.head]
		if p.ready.len() == 0 || p.ready.less(id, p.ready.ids[0]) {
			p.head++
			return id, true
		}
	}
	if p.ready.len() == 0 {
		return 0, false
	}
	return p.ready.pop(), true
}

// complete marks a task finished at `at`, releases its slot, readies
// successors, and re-dispatches. It returns 1 when the task newly completed.
func (p *Projector) complete(id dag.TaskID, at simtime.Time, horizon simtime.Time, shift func(simtime.Time) simtime.Time) int {
	pt := &p.tasks[id]
	if pt.state == monitor.Completed {
		return 0
	}
	pt.state = monitor.Completed
	if pi, ok := p.instByID[pt.inst]; ok {
		pi.remove(id)
		pi.free++
	}
	for _, s := range p.wf.Task(id).Succs {
		st := &p.tasks[s]
		if st.state != monitor.Blocked {
			continue
		}
		st.waiting--
		if st.waiting == 0 {
			st.state = monitor.Ready
			st.readyAt = at
			p.ready.push(s)
		}
	}
	p.dispatch(at, horizon, shift)
	return 1
}

// dispatch starts queued tasks on free active slots, FIFO, first instance
// in ID order.
func (p *Projector) dispatch(at simtime.Time, horizon simtime.Time, shift func(simtime.Time) simtime.Time) {
	for {
		var pick *projInst
		for _, pi := range p.insts {
			if pi.free > 0 && simtime.AtOrBefore(pi.activeAt, at) {
				pick = pi
				break
			}
		}
		if pick == nil {
			return
		}
		id, ok := p.popReady()
		if !ok {
			return
		}
		pt := &p.tasks[id]
		pt.state = monitor.Running
		pt.startedAt = at
		pt.inst = pick.id
		pick.free--
		pick.running = append(pick.running, id)
		end := at + pt.est
		if simtime.AtOrBefore(end, horizon) {
			p.evq.push(projEvent{time: shift(end), pri: priComplete, id: id})
		}
	}
}

// Event priorities, matching internal/event's PriInstance < PriTask: an
// instance activating at the same instant a task completes is usable by
// that completion's re-dispatch.
const (
	priActivate = 0
	priComplete = 1
)

// projEvent is one scheduled occurrence of the projection: an instance
// activation (re-dispatch) or a task completion. Value-typed so the queue
// never allocates per event.
type projEvent struct {
	time simtime.Time
	pri  int32
	seq  uint32
	id   dag.TaskID
}

// eventQueue is a binary min-heap of projEvents ordered by (time, pri, seq),
// the same total order as internal/event's engine. seq is unique per push,
// so the order is total and any correct heap pops the identical sequence.
type eventQueue struct {
	evs     []projEvent
	nextSeq uint32
}

func (q *eventQueue) reset() {
	q.evs = q.evs[:0]
	q.nextSeq = 0
}

func (q *eventQueue) len() int { return len(q.evs) }

func (q *eventQueue) less(a, b projEvent) bool {
	if a.time != b.time {
		return a.time < b.time
	}
	if a.pri != b.pri {
		return a.pri < b.pri
	}
	return a.seq < b.seq
}

func (q *eventQueue) push(ev projEvent) {
	ev.seq = q.nextSeq
	q.nextSeq++
	q.evs = append(q.evs, ev)
	// Sift up.
	j := len(q.evs) - 1
	for j > 0 {
		i := (j - 1) / 2
		if !q.less(q.evs[j], q.evs[i]) {
			break
		}
		q.evs[i], q.evs[j] = q.evs[j], q.evs[i]
		j = i
	}
}

func (q *eventQueue) pop() projEvent {
	top := q.evs[0]
	n := len(q.evs) - 1
	q.evs[0] = q.evs[n]
	q.evs = q.evs[:n]
	// Sift down.
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		j := l
		if r := l + 1; r < n && q.less(q.evs[r], q.evs[l]) {
			j = r
		}
		if !q.less(q.evs[j], q.evs[i]) {
			break
		}
		q.evs[i], q.evs[j] = q.evs[j], q.evs[i]
		i = j
	}
	return top
}

// readyQueue is a binary min-heap of task IDs ordered by (readyAt, id), the
// FIFO order. IDs are unique, so the order is total.
type readyQueue struct {
	tasks []projTask
	ids   []dag.TaskID
}

func (q *readyQueue) reset(tasks []projTask) {
	q.tasks = tasks
	q.ids = q.ids[:0]
}

func (q *readyQueue) len() int { return len(q.ids) }

func (q *readyQueue) less(a, b dag.TaskID) bool {
	x, y := &q.tasks[a], &q.tasks[b]
	if x.readyAt != y.readyAt {
		return x.readyAt < y.readyAt
	}
	return a < b
}

// cmp is less as a three-way comparison, for sorting.
func (q *readyQueue) cmp(a, b dag.TaskID) int {
	switch {
	case q.less(a, b):
		return -1
	case q.less(b, a):
		return 1
	}
	return 0
}

func (q *readyQueue) push(id dag.TaskID) {
	q.ids = append(q.ids, id)
	j := len(q.ids) - 1
	for j > 0 {
		i := (j - 1) / 2
		if !q.less(q.ids[j], q.ids[i]) {
			break
		}
		q.ids[i], q.ids[j] = q.ids[j], q.ids[i]
		j = i
	}
}

func (q *readyQueue) pop() dag.TaskID {
	top := q.ids[0]
	n := len(q.ids) - 1
	q.ids[0] = q.ids[n]
	q.ids = q.ids[:n]
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		j := l
		if r := l + 1; r < n && q.less(q.ids[r], q.ids[l]) {
			j = r
		}
		if !q.less(q.ids[j], q.ids[i]) {
			break
		}
		q.ids[i], q.ids[j] = q.ids[j], q.ids[i]
		i = j
	}
	return top
}

// remove deletes id from the instance's running set (order-preserving is
// unnecessary: the harvest sorts).
func (pi *projInst) remove(id dag.TaskID) {
	for i, r := range pi.running {
		if r == id {
			pi.running[i] = pi.running[len(pi.running)-1]
			pi.running = pi.running[:len(pi.running)-1]
			return
		}
	}
}
