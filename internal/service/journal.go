package service

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dag"
	"repro/internal/dagio"
	"repro/internal/monitor"
	"repro/internal/sim"
	"repro/internal/wal"
	"repro/internal/workloads"
)

// The crash-recovery journal: with Config.JournalDir set, every session
// appends its lifecycle to an append-only per-session write-ahead log
// (<dir>/<id>.wal, one JSON record per line). A plan is journaled BEFORE its
// response is released, so any decision a client may have observed is
// re-derivable; a restarted daemon rebuilds its session store by replaying
// each WAL through a fresh controller of the same policy. Deleting or
// evicting a session removes its WAL; sessions alive at shutdown are
// recovered on the next start.

// Fsync modes (Config.FsyncMode): when a journal append reaches stable
// storage. They are internal/wal's policy modes under the names the flag and
// the config have always used.
const (
	FsyncRecord      = wal.SyncRecord
	FsyncPerInterval = wal.SyncInterval
	FsyncOff         = wal.SyncOff
)

// journal is one session's WAL handle: the log (internal/wal owns append,
// fsync policy, failed-write repair and the torn-tail cut) plus what the
// fence check needs. The session mutex serializes its use: appends run under
// it, and whoever closes the handle first detaches it from the session under
// the same mutex (takeWAL), so a delete waits out an in-flight plan.
type journal struct {
	*wal.Log
	path string
	// claimEpoch is the fencing epoch this WAL was opened (or adopted) at;
	// a fence file bearing a strictly higher epoch means a peer has since
	// claimed the session and this handle belongs to a stale process.
	claimEpoch int64
}

// openJournalAt opens a WAL carrying the server's fsync policy and fencing
// posture: the claim epoch the handle was established at, with the fence
// check guarding every append in shard mode only — a standalone daemon has no
// peers that could fence it.
func (s *Server) openJournalAt(path string, claimEpoch int64) (*journal, error) {
	j := &journal{path: path, claimEpoch: claimEpoch}
	var guard func() error
	if s.cfg.ShardMode {
		guard = j.fenced
	}
	l, err := wal.Open(path, s.fsyncPolicy(), guard)
	if err != nil {
		return nil, err
	}
	j.Log = l
	return j, nil
}

func (s *Server) fsyncPolicy() wal.Policy {
	return wal.Policy{Mode: s.cfg.FsyncMode, Every: s.cfg.fsyncInterval}
}

// appendCreate journals the record that opens a WAL, framed in a pooled
// buffer; nothing is written when rec cannot be encoded.
func (j *journal) appendCreate(rec *walRecord) error {
	buf := getBuf()
	defer putBuf(buf)
	line, err := appendCreateRecord(buf.AvailableBuffer(), rec)
	*buf = *bytes.NewBuffer(line)
	if err != nil {
		return err
	}
	return j.Append(line)
}

// appendPlan journals one plan interval: the record is framed in a pooled
// buffer around snapJSON, the request body as posted, and respJSON, the
// response's encoding that also becomes the HTTP body, so nothing on the plan
// path is encoded twice. Reserving the buffer from both lengths keeps the
// frame from growing by doubling past the pool ceiling.
func (j *journal) appendPlan(seq int64, snapJSON, respJSON []byte) error {
	if j == nil {
		return nil
	}
	buf := getBuf()
	defer putBuf(buf)
	reserve(buf, planRecordOverhead+len(snapJSON)+len(respJSON))
	rec := appendPlanRecord(buf.AvailableBuffer(), seq, snapJSON, respJSON)
	*buf = *bytes.NewBuffer(rec)
	return j.Append(rec)
}

// close closes the log, removing the file when remove is set (deleted
// sessions must not resurrect on restart).
func (j *journal) close(remove bool) {
	if j == nil {
		return
	}
	_ = j.Close(!remove) // nothing left to do for a log this process is done with
	if remove {
		_ = os.Remove(j.path)
	}
}

func (s *Server) journalPath(id string) string {
	return filepath.Join(s.cfg.JournalDir, id+".wal")
}

// openSessionJournal attaches a WAL to a freshly created session and writes
// its create record. A catalogue workflow is journaled as its key, seed (the
// effective one, as workloads.Resolve applied it) and digest: the three
// regenerate the workflow on replay for a fraction of what parsing it costs,
// and the digest turns a generator that changed in between into a refused
// replay rather than a session planned on another workflow. Journal trouble is
// logged, never fatal: the daemon degrades to memory-only sessions rather than
// refusing service.
func (s *Server) openSessionJournal(sess *Session, req *CreateSessionRequest, seed int64) {
	if s.cfg.JournalDir == "" {
		return
	}
	j, err := s.openJournalAt(s.journalPath(sess.ID), s.Epoch())
	if err != nil {
		s.cfg.Logf("wire-serve: journal disabled for session %s: %v", sess.ID, err)
		return
	}
	rec := &walRecord{
		Type:       "create",
		ID:         sess.ID,
		Policy:     sess.Policy,
		Workflow:   req.Workflow,
		Controller: req.Controller,
		Tenant:     req.Tenant,
		DeadlineS:  req.DeadlineS,
		CreatedAt:  sess.CreatedAt(),
	}
	if req.Workflow == nil {
		rec.WorkflowKey, rec.WorkflowSeed, rec.WorkflowDigest = req.WorkflowKey, seed, workloads.Digest(sess.Workflow)
	}
	if err := j.appendCreate(rec); err != nil {
		s.cfg.Logf("wire-serve: journal disabled for session %s: %v", sess.ID, err)
		j.close(true)
		return
	}
	sess.setWAL(j)
}

// recoverJournals rebuilds the session store from JournalDir. Called once
// from New, before the daemon serves traffic: it claims every WAL and waits
// for the replays. Fenced WALs — sessions a peer adopted at some epoch while
// this process was down — are skipped, so a restarted shard cannot resurrect
// sessions that now live elsewhere (it re-enters the cluster empty and is
// rehydrated by a join). Per-WAL failures are logged and skipped.
func (s *Server) recoverJournals() {
	entries, err := os.ReadDir(s.cfg.JournalDir)
	if err != nil {
		s.cfg.Logf("wire-serve: journal recovery: %v", err)
		return
	}
	for _, e := range entries {
		if e.IsDir() || filepath.Ext(e.Name()) != ".wal" {
			continue
		}
		path := filepath.Join(s.cfg.JournalDir, e.Name())
		if ep, fenced := readFence(path); fenced {
			s.cfg.Logf("wire-serve: journal recovery: %s fenced at epoch %d (adopted by a peer); skipping", e.Name(), ep)
			continue
		}
		id := sessionIDFromWAL(path)
		if id == "" {
			s.cfg.Logf("wire-serve: journal recovery: %s: not a session WAL; skipping", e.Name())
			continue
		}
		if err := s.claimWAL(id, path, s.Epoch(), false); err != nil {
			s.cfg.Logf("wire-serve: journal recovery: %s: %v", e.Name(), err)
		}
	}
	s.replays.wait()
}

// claim is a session put in the store before its WAL is replayed. Startup
// recovery and both adoption paths end in one: the WAL is in place (fenced
// and copied where it came from a peer), the session is routable, and every
// request for it waits on done. The replay runs once, started by a worker of
// the server's replay pool in claim order or, sooner, by the first request
// that finds it not started yet.
type claim struct {
	srv  *Server
	sess *Session
	path string
	// epoch is the fencing epoch the claim was made at (see handoff.go).
	epoch int64
	// removeCopy says path is a copy this claim made: a replay that fails
	// deletes it rather than leave a WAL the next restart would retry.
	removeCopy bool

	started atomic.Bool
	done    chan struct{}
	// err is why the session is not served; read only after done closes.
	err error
}

// wait returns once the claim's replay has ended, running it here when no
// one has started it, and reports why the session is not served.
func (c *claim) wait() error {
	c.srv.endClaim(c)
	<-c.done
	return c.err
}

// claimWAL puts a session whose WAL is at path into the store, latched, and
// queues its replay. It fails with ErrDuplicateID when the ID is already
// hosted and ErrMaxSessions at capacity; everything the WAL itself holds is
// found by the replay.
func (s *Server) claimWAL(id, path string, epoch int64, removeCopy bool) error {
	sess := &Session{ID: id}
	sess.lastUsed.Store(s.now().UnixNano())
	c := &claim{srv: s, sess: sess, path: path, epoch: epoch, removeCopy: removeCopy, done: make(chan struct{})}
	sess.replay.Store(c)
	// Counted before the insert: a request may end the claim as soon as the
	// session is in the store.
	s.replays.add()
	if err := s.store.Insert(sess); err != nil {
		s.replays.ended()
		if !errors.Is(err, ErrDuplicateID) {
			s.metrics.JournalReplayFailed()
		}
		return err
	}
	s.replays.push(c)
	return nil
}

// endClaim ends a claim — at startup, on adoption after a failover and on a
// drain's target — unless it was started already: it replays the WAL, counts
// what it read and how long it took, and opens the latch. A WAL that cannot be
// replayed takes its session out of the store (a session the daemon accepted
// and can no longer serve is an operator's business even when the rest of the
// directory recovers), and so does a fence a newer claim laid on the WAL while
// it replayed: the session lives elsewhere now.
func (s *Server) endClaim(c *claim) {
	if !c.started.CompareAndSwap(false, true) {
		return
	}
	start := time.Now()
	n, err := s.replaySession(c.sess, c.path, c.epoch)
	s.metrics.JournalReplayRead(n, time.Since(start))
	if err == nil && fencedPast(c.path, c.epoch) {
		c.sess.takeWAL().close(false)
		s.cfg.Logf("wire-serve: journal %s: fenced by a newer claim while it replayed; not serving session %s", filepath.Base(c.path), c.sess.ID)
		err = errFenced
	}
	switch {
	case err == nil:
		if c.sess.Tenant != "" {
			// Recovery bypasses the admission gate: the daemon already
			// accepted this session, so replay must never drop it — but its
			// slot must count against the tenant again.
			s.tenants.Reattach(c.sess.Tenant)
		}
		s.metrics.JournalReplayed()
		s.cfg.Logf("wire-serve: recovered session %s (%s, %d plan(s)) from journal", c.sess.ID, c.sess.Policy, c.sess.lastSeq)
		c.sess.replay.Store(nil)
	case errors.Is(err, errFenced):
		s.store.drop(c.sess)
	default:
		s.store.drop(c.sess)
		s.metrics.JournalReplayFailed()
		s.cfg.Logf("wire-serve: journal %s: %v", filepath.Base(c.path), err)
		if c.removeCopy {
			_ = os.Remove(c.path) // what is left of a failed claim; the source stays fenced
		}
		err = ErrNotFound
	}
	c.err = err
	s.replays.ended()
	close(c.done)
}

// replayQueue runs the replays of claimed sessions on a bounded pool, in
// claim order. Workers are started as claims arrive and exit when the queue is
// empty, so an idle server holds none. The pool takes half the CPUs (at least
// one): replays are background work, and the rest stay for what answers now —
// claims still in flight, plans, and requests that replay their own session
// rather than wait for the pool.
type replayQueue struct {
	mu      sync.Mutex
	idle    *sync.Cond // on mu; broadcast when pending drops to zero
	queue   []*claim
	workers int
	// pending counts claims whose replay has not ended, queued or running.
	pending int
}

func newReplayQueue() *replayQueue {
	q := &replayQueue{}
	q.idle = sync.NewCond(&q.mu)
	return q
}

// replayWorkers is the pool's size.
func replayWorkers() int { return max(1, runtime.GOMAXPROCS(0)/2) }

// add counts a claim about to be made; every add is matched by one ended.
func (q *replayQueue) add() {
	q.mu.Lock()
	q.pending++
	q.mu.Unlock()
}

// ended counts a claim whose replay ended (or that was never inserted).
func (q *replayQueue) ended() {
	q.mu.Lock()
	q.pending--
	if q.pending == 0 {
		q.idle.Broadcast()
	}
	q.mu.Unlock()
}

// push queues c's replay and starts a worker when the pool is not full.
func (q *replayQueue) push(c *claim) {
	q.mu.Lock()
	q.queue = append(q.queue, c)
	spawn := q.workers < replayWorkers()
	if spawn {
		q.workers++
	}
	q.mu.Unlock()
	if spawn {
		go q.work()
	}
}

func (q *replayQueue) work() {
	for {
		q.mu.Lock()
		if len(q.queue) == 0 {
			q.workers--
			q.mu.Unlock()
			return
		}
		c := q.queue[0]
		q.queue[0] = nil
		q.queue = q.queue[1:]
		q.mu.Unlock()
		c.srv.endClaim(c)
	}
}

// wait returns once no claim is pending.
func (q *replayQueue) wait() {
	q.mu.Lock()
	for q.pending > 0 {
		q.idle.Wait()
	}
	q.mu.Unlock()
}

// awaiting is the number of claimed sessions whose replay has not ended.
func (q *replayQueue) awaiting() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.pending
}

// replaySession rebuilds a claimed session from its WAL: the controller from
// the create record, then every journaled interval through it in sequence
// order (skipping duplicate sequence numbers — a crash mid-append can leave
// the same interval twice). It restores the exactly-once cache from the last
// record and re-attaches the journal for appends at claimEpoch (the fencing
// epoch this server's claim on the WAL was established at). Each plan record's
// snapshot is what was posted: it is materialised onto the session's snapshot
// exactly as handlePlan did before the controller sees it, so a delta record
// must directly follow the record it is a delta against — one that does not
// fails the whole recovery rather than be folded into a stale base. A torn
// trailing record is truncated away. sess is in the store but latched, so no
// request reads it before the replay has ended. It returns how many bytes of
// the WAL were replayed: up to the end of the last record accepted.
func (s *Server) replaySession(sess *Session, path string, claimEpoch int64) (int64, error) {
	var created bool
	var broken error // a whole record that must not be replayed: not a torn tail
	var resp PlanResponse
	end, torn, err := wal.Replay(path, func(line []byte) error {
		var rec walLine
		var body *monitor.Snapshot
		if created {
			// Decoded where handlePlan decodes a posted body.
			body = sess.resetBodyScratch()
		}
		if err := readRecord(line, &rec, body); err != nil {
			return err
		}
		if !created {
			// The create record: rebuild the workflow — decoded, or
			// regenerated from the catalogue and held to its digest — and a
			// fresh controller of the journaled policy.
			keyed := rec.WorkflowKey != ""
			if rec.Type != "create" || rec.ID == "" || keyed == (rec.Workflow != nil) || keyed && rec.WorkflowDigest == "" {
				return errors.New("malformed")
			}
			if rec.ID != sess.ID {
				broken = fmt.Errorf("create record names session %q", rec.ID)
				return broken
			}
			var wf *dag.Workflow
			var err error
			if keyed {
				if wf, err = workloads.Regenerate(rec.WorkflowKey, rec.WorkflowSeed, rec.WorkflowDigest); err != nil {
					broken = fmt.Errorf("session %s: %w", sess.ID, err)
					return broken
				}
			} else if wf, err = dagio.Decode(rec.Workflow); err != nil {
				return fmt.Errorf("workflow: %w", err)
			}
			ctrl, err := NewPolicyController(rec.Policy, rec.Controller)
			if err != nil {
				return err
			}
			if rec.CreatedAt.IsZero() {
				rec.CreatedAt = s.now()
			}
			sess.Policy, sess.Workflow, sess.ctrl, sess.createdAt = rec.Policy, wf, ctrl, rec.CreatedAt
			sess.Tenant = rec.Tenant
			sess.DeadlineS = rec.DeadlineS
			created = true
			return nil
		}
		// Skipped: anything but a complete plan record, and a duplicate
		// interval (two writers during a crash window, or a replayed retry) —
		// first write wins, like the live seq cache.
		if rec.Type != "plan" || rec.Snapshot == nil || len(rec.Response) == 0 || string(rec.Response) == "null" || rec.Seq <= sess.lastSeq {
			return nil
		}
		// Decoded for the divergence check and the iteration count; the
		// scratch keeps its slices from record to record.
		resp = PlanResponse{Decision: sim.Decision{Releases: resp.Decision.Releases[:0]}, Predictions: resp.Predictions[:0]}
		if err := unmarshalPlanResponse(rec.Response, &resp); err != nil {
			return err
		}
		if rec.Snapshot.Delta && (!sess.baseOK || rec.Seq != sess.lastSeq+1) {
			broken = fmt.Errorf("plan seq %d is a delta but the log's previous interval is %d", rec.Seq, sess.lastSeq)
			return broken
		}
		if err := sess.materialise(rec.Snapshot); err != nil {
			broken = fmt.Errorf("plan seq %d: %w", rec.Seq, err)
			return broken
		}
		dec, degraded, perr := planStep(sess, &sess.snapScratch)
		if perr != nil {
			s.cfg.Logf("wire-serve: journal %s: replaying seq %d: %v", filepath.Base(path), rec.Seq, perr)
		} else if degraded != resp.Degraded || !sameDecision(dec, resp.Decision) {
			s.cfg.Logf("wire-serve: journal %s: seq %d replay diverged from recorded decision; keeping record",
				filepath.Base(path), rec.Seq)
		}
		// The recorded response is authoritative: it is what the client saw.
		sess.lastSeq = rec.Seq
		sess.lastBody = append(append(sess.lastBody[:0], rec.Response...), '\n')
		sess.baseOK = true
		sess.plans.Store(resp.Iteration)
		return nil
	})
	if err != nil {
		return end, err
	}
	if broken != nil {
		return end, broken
	}
	if !created {
		if torn == nil {
			torn = io.ErrUnexpectedEOF
		}
		return end, fmt.Errorf("create record: %w", torn)
	}
	if torn != nil {
		s.cfg.Logf("wire-serve: journal %s: torn record after offset %d: %v; truncating", filepath.Base(path), end, torn)
		if err := wal.Cut(path, end); err != nil {
			return end, fmt.Errorf("truncate torn tail: %w", err)
		}
	}

	j, err := s.openJournalAt(path, claimEpoch)
	if err != nil {
		s.cfg.Logf("wire-serve: journal disabled for recovered session %s: %v", sess.ID, err)
	} else {
		sess.setWAL(j)
	}
	return end, nil
}

// sameDecision compares two decisions structurally.
func sameDecision(a, b sim.Decision) bool {
	if a.Launch != b.Launch || len(a.Releases) != len(b.Releases) {
		return false
	}
	for i := range a.Releases {
		if a.Releases[i] != b.Releases[i] {
			return false
		}
	}
	return true
}
