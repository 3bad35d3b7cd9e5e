package service

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"repro/internal/dagio"
	"repro/internal/monitor"
	"repro/internal/sim"
	"repro/internal/wal"
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
	return wal.Policy{Mode: s.cfg.FsyncMode, Every: s.cfg.FsyncInterval}
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
// its create record. Journal trouble is logged, never fatal: the daemon
// degrades to memory-only sessions rather than refusing service.
func (s *Server) openSessionJournal(sess *Session, req *CreateSessionRequest) {
	if s.cfg.JournalDir == "" {
		return
	}
	j, err := s.openJournalAt(s.journalPath(sess.ID), s.Epoch())
	if err != nil {
		s.cfg.Logf("wire-serve: journal disabled for session %s: %v", sess.ID, err)
		return
	}
	doc := req.Workflow
	if doc == nil {
		doc = dagio.Encode(sess.Workflow)
	}
	rec := &walRecord{
		Type:       "create",
		ID:         sess.ID,
		Policy:     sess.Policy,
		Workflow:   doc,
		Controller: req.Controller,
		Tenant:     req.Tenant,
		DeadlineS:  req.DeadlineS,
		CreatedAt:  sess.CreatedAt(),
	}
	if err := j.appendCreate(rec); err != nil {
		s.cfg.Logf("wire-serve: journal disabled for session %s: %v", sess.ID, err)
		j.close(true)
		return
	}
	sess.setWAL(j)
}

// recoverJournals rebuilds the session store from JournalDir. Called once
// from New, before the daemon serves traffic.
func (s *Server) recoverJournals() {
	if _, _, err := s.ReplayJournalDir(s.cfg.JournalDir); err != nil {
		s.cfg.Logf("wire-serve: journal recovery: %v", err)
	}
}

// ReplayJournalDir replays every session WAL in dir into the live store.
// It backs startup recovery (dir = the server's own JournalDir): fenced WALs
// — sessions a peer adopted at some epoch while this process was down — are
// skipped, so a restarted shard cannot resurrect sessions that now live
// elsewhere (it re-enters the cluster empty and is rehydrated by a join).
// Per-WAL failures are logged and skipped — a session whose ID is already
// hosted counts in total but not in fresh. The returned error covers only an
// unreadable directory.
func (s *Server) ReplayJournalDir(dir string) (total, fresh int, err error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, 0, err
	}
	for _, e := range entries {
		if e.IsDir() || filepath.Ext(e.Name()) != ".wal" {
			continue
		}
		path := filepath.Join(dir, e.Name())
		if ep, fenced := readFence(path); fenced {
			s.cfg.Logf("wire-serve: journal recovery: %s fenced at epoch %d (adopted by a peer); skipping", e.Name(), ep)
			continue
		}
		if err := s.recoverSession(path, s.Epoch()); err != nil {
			if errors.Is(err, ErrDuplicateID) {
				total++
				continue
			}
			s.cfg.Logf("wire-serve: journal recovery: %s: %v", e.Name(), err)
			continue
		}
		total++
		fresh++
	}
	return total, fresh, nil
}

// recoverSession replays one WAL — at startup, on adoption after a failover
// and on a drain's target — and counts what it read and how long it took,
// and the WALs that cannot be replayed: a session the daemon accepted and can
// no longer serve is an operator's business even when the rest of the
// directory recovers.
func (s *Server) recoverSession(path string, claimEpoch int64) error {
	start := time.Now()
	n, err := s.replaySession(path, claimEpoch)
	s.metrics.JournalReplayRead(n, time.Since(start))
	if err != nil && !errors.Is(err, ErrDuplicateID) {
		s.metrics.JournalReplayFailed()
	}
	return err
}

// replaySession rebuilds the controller from the create record, replays
// every journaled interval through it in sequence order (skipping duplicate
// sequence numbers — a crash mid-append can leave the same interval twice),
// restores the exactly-once cache from the last record, and re-attaches the
// journal for appends at claimEpoch (the fencing epoch this server's claim on
// the WAL was established at). Each plan record's snapshot is what was posted:
// it is materialised onto the session's snapshot exactly as handlePlan did
// before the controller sees it, so a delta record must directly follow the
// record it is a delta against — one that does not fails the whole recovery
// rather than be folded into a stale base. A torn trailing record is
// truncated away. The session is replayed fully detached and only inserted
// into the store at the end, so adoption while the daemon serves traffic can
// never expose a half-replayed controller. It returns how many bytes of the
// WAL were replayed: up to the end of the last record accepted.
func (s *Server) replaySession(path string, claimEpoch int64) (int64, error) {
	var sess *Session
	var broken error // a whole record that must not be replayed: not a torn tail
	var resp PlanResponse
	end, torn, err := wal.Replay(path, func(line []byte) error {
		var rec walLine
		var body *monitor.Snapshot
		if sess != nil {
			// Decoded where handlePlan decodes a posted body.
			body = sess.resetBodyScratch()
		}
		if err := readRecord(line, &rec, body); err != nil {
			return err
		}
		if sess == nil {
			// The create record: rebuild the workflow and a fresh controller
			// of the journaled policy.
			if rec.Type != "create" || rec.ID == "" || rec.Workflow == nil {
				return errors.New("malformed")
			}
			wf, err := dagio.Decode(rec.Workflow)
			if err != nil {
				return fmt.Errorf("workflow: %w", err)
			}
			ctrl, err := NewPolicyController(rec.Policy, rec.Controller)
			if err != nil {
				return err
			}
			if rec.CreatedAt.IsZero() {
				rec.CreatedAt = s.now()
			}
			sess = s.store.NewDetached(rec.ID, rec.Policy, wf, ctrl, rec.CreatedAt)
			sess.Tenant = rec.Tenant
			sess.DeadlineS = rec.DeadlineS
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
	if sess == nil {
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
		sess.wal = j
	}
	if err := s.store.Insert(sess); err != nil {
		sess.takeWAL().close(false)
		return end, err
	}
	if sess.Tenant != "" {
		// Recovery bypasses the admission gate: the daemon already accepted
		// this session, so replay must never drop it — but its slot must
		// count against the tenant again.
		s.tenants.Reattach(sess.Tenant)
	}
	s.metrics.JournalReplayed()
	s.cfg.Logf("wire-serve: recovered session %s (%s, %d plan(s)) from journal", sess.ID, sess.Policy, sess.lastSeq)
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
