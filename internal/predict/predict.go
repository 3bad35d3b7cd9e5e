// Package predict implements WIRE's task predictor (§III-B1, §III-C): the
// five online prediction policies plus the per-stage online-gradient-descent
// model of Algorithm 1.
//
// The predictor consumes one monitoring snapshot per MAPE iteration
// (Update) and then answers occupancy estimates for incomplete/unstarted
// tasks (EstimateExec, RemainingOccupancy). All estimates derive exclusively
// from observed data in the snapshots — never from the workflow's
// ground-truth fields.
package predict

import (
	"fmt"
	"math"
	"sort"
	"unsafe"

	"repro/internal/dag"
	"repro/internal/monitor"
	"repro/internal/stats"
)

// Policy identifies which of the paper's five heuristics produced an
// estimate (§III-C).
type Policy int

// The five online prediction policies.
const (
	// PolicyNone: the task is already complete; no prediction needed.
	PolicyNone Policy = 0
	// PolicyZero (1): no task at the stage has started; estimate 0.
	PolicyZero Policy = 1
	// PolicyRunningMedian (2): running tasks only; presume they are about
	// to complete and estimate unstarted peers at the median run time.
	PolicyRunningMedian Policy = 2
	// PolicyCompletedMedian (3): completed tasks exist but the task's
	// input is not yet available; use the median completed time.
	PolicyCompletedMedian Policy = 3
	// PolicyGroupMedian (4): the task is ready and its input size matches
	// a group of completed peers; use that group's median.
	PolicyGroupMedian Policy = 4
	// PolicyOGD (5): the task is ready with an input size unseen among
	// completed peers; use the stage's online-gradient-descent model.
	PolicyOGD Policy = 5
	// PolicyPrior (extension): no runtime data exists for the stage yet,
	// but a warm-start prior from a previous run is configured. Replaces
	// Policy 1's zero estimate for recurrent workflows; online data
	// overrides it as soon as any peer starts.
	PolicyPrior Policy = 6
)

// String implements fmt.Stringer.
func (p Policy) String() string {
	switch p {
	case PolicyNone:
		return "none"
	case PolicyZero:
		return "p1-zero"
	case PolicyRunningMedian:
		return "p2-running-median"
	case PolicyCompletedMedian:
		return "p3-completed-median"
	case PolicyGroupMedian:
		return "p4-group-median"
	case PolicyOGD:
		return "p5-ogd"
	case PolicyPrior:
		return "p6-prior"
	default:
		return fmt.Sprintf("policy(%d)", int(p))
	}
}

// Config tunes the predictor. The zero value gives the paper's settings.
type Config struct {
	// LearningRate for Algorithm 1 (paper: 0.1).
	LearningRate float64
	// EpochsPerUpdate is the number of full-batch gradient passes per
	// MAPE iteration (paper: 1).
	EpochsPerUpdate int
	// SizeTolerance is the relative tolerance within which two input
	// sizes count as "equivalent" for Policy 4 grouping (default 1%).
	SizeTolerance float64
	// TransferWindow is the moving-median window, in MAPE intervals,
	// smoothing the data-transfer estimate (default 5).
	TransferWindow int
	// Priors optionally warm-starts stages of recurrent workflows with a
	// typical execution time from a previous run (seconds per stage).
	// A prior is used only while its stage has no started tasks at all
	// (it replaces Policy 1's zero estimate); the first online
	// observation takes over. Nil disables warm starting.
	Priors map[dag.StageID]float64
}

func (c Config) withDefaults() Config {
	if c.LearningRate <= 0 {
		c.LearningRate = 0.1
	}
	if c.EpochsPerUpdate <= 0 {
		c.EpochsPerUpdate = 1
	}
	if c.SizeTolerance <= 0 {
		c.SizeTolerance = 0.01
	}
	if c.TransferWindow <= 0 {
		c.TransferWindow = 5
	}
	return c
}

// sizeGroup is a set of completed peer tasks sharing an input size: its
// founder's, the first completion in stage task order that matched no group
// founded before it.
type sizeGroup struct {
	size    float64
	founder int // stage position of the founding completion
	execs   stats.OrderStats
	median  float64
}

// ogdModel is the per-stage linear model of Algorithm 1: t = a0 + a1·d',
// where d' is the input size normalized by the largest size seen at the
// stage. Normalization keeps the fixed 0.1 learning rate stable for
// megabyte-scale features; it is an implementation detail invisible to
// callers (predictions are in seconds against raw sizes).
type ogdModel struct {
	a0, a1 float64
	scale  float64
}

func (m *ogdModel) predict(d float64) float64 {
	if m.scale <= 0 {
		return m.a0
	}
	v := m.a0 + m.a1*(d/m.scale)
	if v < 0 {
		return 0
	}
	return v
}

// step runs one full-batch gradient pass (Algorithm 1 lines 5–12) over the
// training set of (size, median exec) points.
func (m *ogdModel) step(points []sizeGroup, lr float64) {
	n := float64(len(points))
	if n == 0 {
		return
	}
	g0, g1 := 0.0, 0.0
	for i := range points {
		p := &points[i]
		d := p.size / m.scale
		err := p.median - (m.a1*d + m.a0)
		g0 += -2 / n * err
		g1 += -2 / n * d * err
	}
	m.a0 -= lr * g0
	m.a1 -= lr * g1
}

// stageState is one stage's aggregates, carried from Update to Update: each
// interval folds only the stage's new completions into the kept order
// statistics and size groups.
type stageState struct {
	// seen holds, per stage position, the completion the aggregates hold.
	seen      []seenTask
	completed stats.OrderStats // execution times of the completed tasks
	groups    []sizeGroup      // in founder order
	model     ogdModel

	runMedian      float64
	completeMedian float64
	hasRunning     bool
	hasCompleted   bool

	// aggEpoch advances whenever any aggregate feeding estimates other than
	// the OGD model changed in an Update (presence flags, medians, or the
	// ordered size-group list); modelEpoch advances whenever the model's
	// coefficients moved. Together with the predictor's transfer epoch they
	// are the cache-invalidation keys behind EstimateEpochs.
	aggEpoch   uint64
	modelEpoch uint64
	// prevGroups is the (size, median) fingerprint of groups after the
	// previous Update, in group order — order matters because Policy 4
	// matches the first equivalent group.
	prevGroups []groupKey

	// Scratch of one Update.
	running stats.OrderStats // elapsed times of the running tasks
	elapsed []float64
	fresh   []int     // stage positions completed since the last Update
	batch   []float64 // their execution times
}

// seenTask is what a stage's aggregates hold of one task: whether it had
// completed, and with which execution time and input size.
type seenTask struct {
	done       bool
	exec, size float64
}

// groupKey is the estimate-relevant fingerprint of one size group.
type groupKey struct {
	size   float64
	median float64
}

// reset empties the aggregates folded for a stage of n tasks. The model and
// the epochs carry over, exactly as a rebuild of the aggregates leaves them.
func (ss *stageState) reset(n int) {
	if cap(ss.seen) < n {
		ss.seen = make([]seenTask, n)
	} else {
		ss.seen = ss.seen[:n]
		clear(ss.seen)
	}
	ss.completed.Reset()
	ss.groups = ss.groups[:0]
}

// Predictor holds the online models for one workflow run.
type Predictor struct {
	cfg    Config
	stages map[dag.StageID]*stageState

	transferMed  *stats.MovingMedian
	lastTransfer float64
	hasTransfer  bool
	// transferEpoch advances whenever (lastTransfer, hasTransfer) changes;
	// it is folded into every stage's aggregate epoch since EstimateOccupancy
	// adds the transfer estimate to every answer.
	transferEpoch uint64
	updates       int
	// resets counts stages folded again from empty, by cause: a completion
	// that would found a size group ahead of an existing one, or a completed
	// record that changed or left Completed.
	resets struct{ order, monotonic int }
}

// New returns a predictor with the given configuration.
func New(cfg Config) *Predictor {
	cfg = cfg.withDefaults()
	return &Predictor{
		cfg:         cfg,
		stages:      make(map[dag.StageID]*stageState),
		transferMed: stats.NewMovingMedian(cfg.TransferWindow),
	}
}

// Updates returns the number of snapshots consumed.
func (p *Predictor) Updates() int { return p.updates }

// Update ingests one monitoring snapshot: folds each stage's new completions
// into its aggregates and advances every stage's OGD model one step
// (Algorithm 1). Call exactly once per MAPE iteration, before asking for
// estimates.
func (p *Predictor) Update(snap *monitor.Snapshot) {
	p.updates++
	p.updateTransfer(snap)

	for _, st := range snap.Workflow.Stages {
		ss := p.stages[st.ID]
		if ss == nil {
			ss = &stageState{}
			p.stages[st.ID] = ss
		}
		prevHasRunning, prevHasCompleted := ss.hasRunning, ss.hasCompleted
		prevRunMedian, prevCompleteMedian := ss.runMedian, ss.completeMedian
		prevModel := ss.model

		if len(ss.seen) != len(st.Tasks) {
			ss.reset(len(st.Tasks))
		}
		maxSize, ok := p.fold(ss, st.Tasks, snap)
		if !ok {
			// The snapshot does not extend what the stage holds: fold it
			// again from empty, through the same pass.
			ss.reset(len(st.Tasks))
			maxSize, _ = p.fold(ss, st.Tasks, snap)
		}
		ss.running.Reset()
		ss.running.Merge(ss.elapsed...)
		ss.hasRunning = ss.running.Len() > 0
		ss.hasCompleted = ss.completed.Len() > 0
		ss.runMedian, _ = ss.running.Median()
		ss.completeMedian, _ = ss.completed.Median()

		if ss.hasCompleted {
			if maxSize <= 0 {
				maxSize = 1
			}
			ss.model.scale = maxSize
			for e := 0; e < p.cfg.EpochsPerUpdate; e++ {
				ss.model.step(ss.groups, p.cfg.LearningRate)
			}
		}

		// Advance the invalidation epochs only when an estimate input
		// actually changed, so downstream caches (lookahead.Projector) stay
		// warm across the long stretches where a stage's aggregates are
		// stable between MAPE intervals.
		aggChanged := ss.hasRunning != prevHasRunning ||
			ss.hasCompleted != prevHasCompleted ||
			ss.runMedian != prevRunMedian ||
			ss.completeMedian != prevCompleteMedian ||
			len(ss.groups) != len(ss.prevGroups)
		if !aggChanged {
			for i := range ss.groups {
				if (groupKey{ss.groups[i].size, ss.groups[i].median}) != ss.prevGroups[i] {
					aggChanged = true
					break
				}
			}
		}
		if aggChanged {
			ss.aggEpoch++
			ss.prevGroups = ss.prevGroups[:0]
			for i := range ss.groups {
				ss.prevGroups = append(ss.prevGroups, groupKey{ss.groups[i].size, ss.groups[i].median})
			}
		}
		if ss.model != prevModel {
			ss.modelEpoch++
		}
	}
}

// updateTransfer refreshes the transfer estimate: the median of the transfers
// observed in the last interval (the memoryless model of §III-B1), smoothed
// by a moving median across intervals.
func (p *Predictor) updateTransfer(snap *monitor.Snapshot) {
	if med, ok := stats.Median(snap.RecentTransfers); ok {
		p.transferMed.Push(med)
		if m, ok := p.transferMed.Median(); ok {
			if m != p.lastTransfer || !p.hasTransfer {
				p.transferEpoch++
			}
			p.lastTransfer = m
			p.hasTransfer = true
		}
	}
}

// fold brings a stage's aggregates up to date with its records in snap: one
// compare pass against what ss holds, which also collects the running tasks'
// elapsed times and the largest input size (at least the model's scale), then
// the new completions merged in stage order. It reports false, leaving ss
// half-folded for the caller to reset, when the records do not extend what
// ss holds: a completed record changed or left Completed, or a completion
// would found a size group ahead of an existing one.
func (p *Predictor) fold(ss *stageState, tasks []dag.TaskID, snap *monitor.Snapshot) (maxSize float64, ok bool) {
	ss.elapsed = ss.elapsed[:0]
	ss.fresh = ss.fresh[:0]
	maxSize = ss.model.scale
	for i, tid := range tasks {
		rec := snap.Task(tid)
		seen := &ss.seen[i]
		switch {
		case seen.done:
			if rec.State != monitor.Completed || rec.ExecTime != seen.exec || rec.InputSize != seen.size {
				p.resets.monotonic++
				return 0, false
			}
		case rec.State == monitor.Completed:
			*seen = seenTask{done: true, exec: rec.ExecTime, size: rec.InputSize}
			ss.fresh = append(ss.fresh, i)
		case rec.State == monitor.Running:
			ss.elapsed = append(ss.elapsed, rec.Elapsed)
		}
		if rec.InputSize > maxSize {
			maxSize = rec.InputSize
		}
	}

	// A completion joins the first group its size is equivalent to when that
	// group was founded before it in stage order, and otherwise founds one.
	// Founding a group ahead of an existing one would reorder the groups
	// (the order Algorithm 1 sums in) and, sizesEquivalent not being
	// transitive, could take later completions from the groups they joined:
	// only a fold from empty may do that.
	ss.batch = ss.batch[:0]
	for _, pos := range ss.fresh {
		seen := ss.seen[pos]
		g := p.groupOf(ss, seen.size)
		if g < 0 || ss.groups[g].founder > pos {
			if n := len(ss.groups); n > 0 && ss.groups[n-1].founder > pos {
				p.resets.order++
				return 0, false
			}
			ss.groups = append(ss.groups, sizeGroup{size: seen.size, founder: pos})
			g = len(ss.groups) - 1
		}
		grp := &ss.groups[g]
		grp.execs.Merge(seen.exec)
		grp.median, _ = grp.execs.Median()
		ss.batch = append(ss.batch, seen.exec)
	}
	ss.completed.Merge(ss.batch...)
	return maxSize, true
}

// StateBytes approximates the memory the predictor keeps between Updates:
// per stage, the per-task bookkeeping, the kept order statistics, the size
// groups and the buffers one Update reuses.
func (p *Predictor) StateBytes() int {
	const f64 = 8
	n := 0
	for _, ss := range p.stages {
		n += int(unsafe.Sizeof(*ss))
		n += cap(ss.seen) * int(unsafe.Sizeof(seenTask{}))
		n += (ss.completed.Len() + ss.running.Len() + cap(ss.elapsed) + cap(ss.batch)) * f64
		n += cap(ss.fresh) * int(unsafe.Sizeof(int(0)))
		n += cap(ss.groups) * int(unsafe.Sizeof(sizeGroup{}))
		for i := range ss.groups {
			n += ss.groups[i].execs.Len() * f64
		}
		n += cap(ss.prevGroups) * int(unsafe.Sizeof(groupKey{}))
	}
	return n
}

// groupOf returns the index of the first size group whose size is equivalent
// to size (Policy 4's match), or -1.
func (p *Predictor) groupOf(ss *stageState, size float64) int {
	for i := range ss.groups {
		if sizesEquivalent(ss.groups[i].size, size, p.cfg.SizeTolerance) {
			return i
		}
	}
	return -1
}

// EstimateEpochs returns the stage's cache-invalidation epochs: agg covers
// every input to its estimates except the OGD coefficients (aggregates,
// size groups, priors, the shared transfer estimate), model covers the
// coefficients. A memoized estimate for a task whose state is unchanged
// stays valid while agg matches (and, for Policy 5 answers, model). The
// method makes *Predictor satisfy lookahead.EpochEstimator.
func (p *Predictor) EstimateEpochs(stage dag.StageID) (agg, model uint64) {
	ss := p.stages[stage]
	if ss == nil {
		// No per-stage state behaves exactly like all-zero state (Policy 1
		// or a prior), so sharing epoch 0 with that case is sound.
		return p.transferEpoch, 0
	}
	// Both terms only ever grow, so the sum changes whenever either does.
	return ss.aggEpoch + p.transferEpoch, ss.modelEpoch
}

func sizesEquivalent(a, b, tol float64) bool {
	m := math.Max(math.Abs(a), math.Abs(b))
	if m == 0 {
		return true
	}
	return math.Abs(a-b) <= tol*m
}

// EstimateExec returns the estimated (minimum) execution time of an
// incomplete or unstarted task, together with the policy that produced it.
// For a completed task it returns the observed time with PolicyNone.
func (p *Predictor) EstimateExec(snap *monitor.Snapshot, id dag.TaskID) (float64, Policy) {
	rec := snap.Task(id)
	if rec.State == monitor.Completed {
		return rec.ExecTime, PolicyNone
	}
	ss := p.stages[rec.Stage]
	if ss == nil {
		if prior, ok := p.cfg.Priors[rec.Stage]; ok && prior > 0 {
			return prior, PolicyPrior
		}
		return 0, PolicyZero
	}
	switch {
	case !ss.hasRunning && !ss.hasCompleted:
		// Policy 1: nothing at the stage has started — unless a
		// warm-start prior is configured (extension, PolicyPrior).
		if prior, ok := p.cfg.Priors[rec.Stage]; ok && prior > 0 {
			return prior, PolicyPrior
		}
		return 0, PolicyZero
	case !ss.hasCompleted:
		// Policy 2: only running peers; the median run time is the
		// conservative floor (they are presumed about to complete, and
		// unstarted peers will run at least this long).
		return ss.runMedian, PolicyRunningMedian
	}
	// Completed peers exist.
	if rec.State == monitor.Blocked {
		// Policy 3: input not yet available.
		return ss.completeMedian, PolicyCompletedMedian
	}
	// Ready or Running: the input size is known.
	if g := p.groupOf(ss, rec.InputSize); g >= 0 {
		// Policy 4: equivalent completed group.
		return ss.groups[g].median, PolicyGroupMedian
	}
	// Policy 5: new input size — OGD model.
	return ss.model.predict(rec.InputSize), PolicyOGD
}

// EstimateTransfer returns the current per-task data-transfer estimate
// (0 until any transfer has been observed).
func (p *Predictor) EstimateTransfer() float64 {
	if !p.hasTransfer {
		return 0
	}
	return p.lastTransfer
}

// EstimateOccupancy returns the estimated total slot occupancy (transfer +
// execution) of a task.
func (p *Predictor) EstimateOccupancy(snap *monitor.Snapshot, id dag.TaskID) (float64, Policy) {
	exec, pol := p.EstimateExec(snap, id)
	return exec + p.EstimateTransfer(), pol
}

// RemainingOccupancy returns the predicted minimum remaining slot occupancy
// of a task at time `at` (≥ snapshot time): the full estimated occupancy for
// tasks that have not started, and the estimate minus the occupancy already
// consumed for running tasks, floored at zero (the conservative-minimum rule
// of §III-A).
//
// Exception: while a stage has running tasks but no completions (Policy 2),
// a running task's remaining occupancy is its full estimate. With zero
// completions there is no evidence any task ever finishes, so the stage's
// median elapsed run time is the conservative floor on future occupancy as
// well — this is what makes the pool reach N instances by time U in the
// §III-E walkthrough ("after U/N time units the algorithm predicts that the
// N tasks of the stage will consume an entire instance-unit").
func (p *Predictor) RemainingOccupancy(snap *monitor.Snapshot, id dag.TaskID, at float64) (float64, Policy) {
	rec := snap.Task(id)
	total, pol := p.EstimateOccupancy(snap, id)
	if rec.State != monitor.Running || pol == PolicyRunningMedian {
		return total, pol
	}
	elapsedAt := rec.Elapsed + (at - snap.Now)
	rem := total - elapsedAt
	if rem < 0 {
		rem = 0
	}
	return rem, pol
}

// Coefficients exposes a stage's OGD model (a0, a1 against the normalized
// feature, and the normalization scale) for tests and diagnostics.
func (p *Predictor) Coefficients(stage dag.StageID) (a0, a1, scale float64, ok bool) {
	ss := p.stages[stage]
	if ss == nil {
		return 0, 0, 0, false
	}
	return ss.model.a0, ss.model.a1, ss.model.scale, true
}

// ModeledStages returns the stages with state, in ascending ID order.
func (p *Predictor) ModeledStages() []dag.StageID {
	out := make([]dag.StageID, 0, len(p.stages))
	for id := range p.stages {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
