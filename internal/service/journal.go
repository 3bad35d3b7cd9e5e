package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"repro/internal/dagio"
	"repro/internal/jsonlite"
	"repro/internal/monitor"
	"repro/internal/sim"
)

// The crash-recovery journal: with Config.JournalDir set, every session
// appends its lifecycle to an append-only per-session write-ahead log
// (<dir>/<id>.wal, one JSON record per line). A plan is journaled BEFORE its
// response is released, so any decision a client may have observed is
// re-derivable; a restarted daemon rebuilds its session store by replaying
// each WAL through a fresh controller of the same policy. Deleting or
// evicting a session removes its WAL; sessions alive at shutdown are
// recovered on the next start.

// walRecord is one journal line. Type "create" opens the log and carries
// everything needed to rebuild the controller; each "plan" carries the
// snapshot that advanced it and the response that was (about to be) served.
// Replay decodes both kinds into it, but only the create record is written by
// marshalling it: plan records are framed by appendPlanRecord, which is held
// to this struct's encoding byte for byte.
type walRecord struct {
	Type string `json:"type"`

	// create
	ID         string          `json:"id,omitempty"`
	Policy     string          `json:"policy,omitempty"`
	Workflow   *dagio.Document `json:"workflow,omitempty"`
	Controller *ControllerSpec `json:"controller,omitempty"`
	Tenant     string          `json:"tenant,omitempty"`
	DeadlineS  float64         `json:"deadline_s,omitempty"`
	CreatedAt  time.Time       `json:"created_at"`

	// plan
	Seq      int64             `json:"seq,omitempty"`
	Snapshot *monitor.Snapshot `json:"snapshot,omitempty"`
	Response *PlanResponse     `json:"response,omitempty"`
}

// Fsync modes (Config.FsyncMode): when a WAL append reaches stable storage.
const (
	// FsyncRecord syncs every append before the decision is released: zero
	// loss window, one fsync per plan.
	FsyncRecord = "record"
	// FsyncPerInterval syncs at most once per Config.FsyncInterval (plus on
	// close): a bounded power-loss window, amortized fsync cost. In-process
	// readers (the fenced-copy handoff, torn-tail recovery after SIGKILL)
	// see unsynced writes, so only an OS crash can lose the tail — and a
	// torn tail truncates to the last whole record on replay.
	FsyncPerInterval = "interval"
	// FsyncOff never syncs; the OS flushes when it pleases.
	FsyncOff = "off"
)

// walFile is the part of *os.File the journal uses; tests substitute a file
// whose writes fail or come up short.
type walFile interface {
	io.Writer
	Sync() error
	Truncate(size int64) error
	Close() error
}

// errJournalBroken is returned by journal.appendBytes when the WAL can no
// longer be kept a clean sequence of whole records — a failed write could not
// be truncated away, or two appends in a row failed. The caller detaches the
// journal; the session carries on in memory only.
var errJournalBroken = errors.New("service: session journal unusable")

// journal is one session's WAL handle. The session mutex serializes its use:
// appends run under it, and whoever closes the handle first detaches it from
// the session under the same mutex (takeWAL), so a delete waits out an
// in-flight plan.
type journal struct {
	path string
	f    walFile
	// size is the file's length after the last whole record: where the next
	// record starts, and what a failed write is truncated back to.
	size int64
	// pending is the one record whose write failed (and was truncated away);
	// the next append writes it first, so the log has no hole once the disk
	// recovers.
	pending []byte
	// claimEpoch is the fencing epoch this WAL was opened (or adopted) at;
	// a fence file bearing a strictly higher epoch means a peer has since
	// claimed the session and this handle belongs to a stale process.
	claimEpoch int64
	// checkFence enables the fence checks around append (shard mode only —
	// a standalone daemon has no peers that could fence it).
	checkFence bool
	// mode and syncEvery implement the fsync policy; lastSync tracks the
	// per-interval mode's last sync instant.
	mode      string
	syncEvery time.Duration
	lastSync  time.Time
}

func openJournal(path string) (*journal, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	size, err := endOnNewline(f)
	if err != nil {
		f.Close()
		return nil, err
	}
	return &journal{path: path, f: f, size: size, mode: FsyncRecord}, nil
}

// endOnNewline returns the file's length, first terminating a last record
// that lacks its newline: replay cuts a torn tail back to the end of the last
// whole record, which is before that record's newline, and a crash can fall
// between the two. The next record must still start its own line — the
// auditor reads the log line by line.
func endOnNewline(f *os.File) (size int64, err error) {
	st, err := f.Stat()
	if err != nil || st.Size() == 0 {
		return 0, err
	}
	size = st.Size()
	var last [1]byte
	if _, err := f.ReadAt(last[:], size-1); err != nil {
		return 0, err
	}
	if last[0] != '\n' {
		if _, err := f.Write([]byte{'\n'}); err != nil {
			return 0, err
		}
		size++
	}
	return size, nil
}

// openJournalAt opens a WAL carrying the server's fencing posture: the claim
// epoch the handle was established at, with fence checks on in shard mode.
func (s *Server) openJournalAt(path string, claimEpoch int64) (*journal, error) {
	j, err := openJournal(path)
	if err != nil {
		return nil, err
	}
	j.claimEpoch = claimEpoch
	j.checkFence = s.cfg.ShardMode
	j.mode = s.cfg.FsyncMode
	j.syncEvery = s.cfg.FsyncInterval
	return j, nil
}

// sync applies the fsync policy after one append.
func (j *journal) sync() error {
	switch j.mode {
	case FsyncOff:
		return nil
	case FsyncPerInterval:
		now := time.Now()
		if !j.lastSync.IsZero() && now.Sub(j.lastSync) < j.syncEvery {
			return nil
		}
		j.lastSync = now
	}
	return j.f.Sync()
}

// appendBytes is the journal's one write primitive: it writes rec — whole
// records, each ending in '\n' — with a single Write and syncs it per the
// fsync policy. In shard mode it re-reads the session's fence file AFTER the
// sync: an adopter fences first and copies the WAL second, so a stale writer
// that raced the handoff either appended before the fence landed (the copy
// includes the record) or sees the fence here and gets errFenced — in which
// case the caller must withhold the decision, because the adopter's copy
// cannot contain it.
//
// A failed or short write is truncated away, so the file stays a sequence of
// whole records and later appends are not stranded behind garbage that replay
// would cut off together with everything after it. The record itself is kept
// and written ahead of the next append. When that fails too, or the truncate
// does, the error wraps errJournalBroken.
func (j *journal) appendBytes(rec []byte) error {
	if j == nil {
		return nil
	}
	if j.checkFence && fencedPast(j.path, j.claimEpoch) {
		return errFenced
	}
	if len(j.pending) > 0 {
		if err := j.write(j.pending); err != nil {
			return fmt.Errorf("%w: second failed append in a row: %v", errJournalBroken, err)
		}
		j.pending = nil
	}
	if err := j.write(rec); err != nil {
		if !errors.Is(err, errJournalBroken) {
			// rec is the caller's pooled buffer; keep a copy.
			j.pending = append([]byte(nil), rec...)
		}
		return err
	}
	if err := j.sync(); err != nil {
		return err
	}
	if j.checkFence && fencedPast(j.path, j.claimEpoch) {
		return errFenced
	}
	return nil
}

// write issues the one Write of b and cuts a partial write back off the file.
func (j *journal) write(b []byte) error {
	n, err := j.f.Write(b)
	if err == nil {
		j.size += int64(n)
		return nil
	}
	if terr := j.f.Truncate(j.size); terr != nil {
		return fmt.Errorf("%w: write: %v; truncating back to offset %d: %v", errJournalBroken, err, j.size, terr)
	}
	return err
}

// appendCreate journals the record that opens a WAL.
func (j *journal) appendCreate(rec walRecord) error {
	b, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	return j.appendBytes(append(b, '\n'))
}

// appendPlan journals one plan interval: the record is framed in a pooled
// buffer around respJSON, the response's encoding that also becomes the HTTP
// body, so each plan is encoded once. snapSize is the posted snapshot's body
// length, which the re-encoded snapshot equals for any client using this
// repo's encoder; reserving the buffer from it keeps the frame from growing
// by doubling past the pool ceiling.
func (j *journal) appendPlan(seq int64, snap *monitor.Snapshot, respJSON []byte, snapSize int) error {
	if j == nil {
		return nil
	}
	buf := getBuf()
	defer putBuf(buf)
	reserve(buf, planRecordOverhead+snapSize+len(respJSON))
	rec, err := appendPlanRecord(buf.AvailableBuffer(), seq, snap, respJSON)
	*buf = *bytes.NewBuffer(rec)
	if err != nil {
		return err
	}
	return j.appendBytes(rec)
}

// planRecordOverhead bounds what appendPlanRecord adds around the snapshot
// and the response.
const planRecordOverhead = 128

// appendPlanRecord appends one plan record line to dst, byte for byte what
// json.Encoder.Encode(walRecord{Type: "plan", Seq: seq, Snapshot: snap,
// Response: r}) writes when respJSON is r's encoding: that equality is the
// WAL format contract (DESIGN.md) and what the differential and fuzz tests
// pin. The create-only fields are omitempty and vanish; created_at is not,
// so every plan record carries the zero time.
func appendPlanRecord(dst []byte, seq int64, snap *monitor.Snapshot, respJSON []byte) ([]byte, error) {
	dst = append(dst, `{"type":"plan","created_at":"0001-01-01T00:00:00Z"`...)
	if seq != 0 {
		dst = append(dst, `,"seq":`...)
		dst = jsonlite.AppendInt(dst, seq)
	}
	dst = append(dst, `,"snapshot":`...)
	dst, err := monitor.AppendSnapshotJSON(dst, snap)
	dst = append(dst, `,"response":`...)
	dst = append(dst, respJSON...)
	return append(dst, '}', '\n'), err
}

// close closes the file, removing it when remove is set (deleted sessions
// must not resurrect on restart). A kept file is synced first, so the
// per-interval and off modes leave nothing in flight on a clean shutdown.
func (j *journal) close(remove bool) {
	if j == nil {
		return
	}
	if !remove {
		if len(j.pending) > 0 {
			// Last chance for a record a failed write left behind; the fence
			// checks apply as to any append.
			_ = j.appendBytes(nil)
		}
		_ = j.f.Sync()
	}
	_ = j.f.Close()
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
	rec := walRecord{
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

// recoverSession replays one WAL: it rebuilds the controller from the create
// record, replays every journaled snapshot through it in sequence order
// (skipping duplicate sequence numbers — a crash mid-append can leave the
// same interval twice), restores the exactly-once cache from the last
// record, and re-attaches the journal for appends at claimEpoch (the fencing
// epoch this server's claim on the WAL was established at). A torn trailing
// record is truncated away. The session is replayed fully detached and only
// inserted into the store at the end, so adoption while the daemon serves
// traffic can never expose a half-replayed controller.
func (s *Server) recoverSession(path string, claimEpoch int64) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()

	dec := json.NewDecoder(f)
	var create walRecord
	if err := dec.Decode(&create); err != nil {
		return fmt.Errorf("unreadable create record: %w", err)
	}
	if create.Type != "create" || create.ID == "" || create.Workflow == nil {
		return fmt.Errorf("malformed create record")
	}
	wf, err := dagio.Decode(create.Workflow)
	if err != nil {
		return fmt.Errorf("workflow: %w", err)
	}
	ctrl, err := NewPolicyController(create.Policy, create.Controller)
	if err != nil {
		return err
	}
	createdAt := create.CreatedAt
	if createdAt.IsZero() {
		createdAt = s.now()
	}
	sess := s.store.NewDetached(create.ID, create.Policy, wf, ctrl, createdAt)
	sess.Tenant = create.Tenant
	sess.DeadlineS = create.DeadlineS

	goodOffset := dec.InputOffset()
	torn := false
	for {
		var rec walRecord
		if err := dec.Decode(&rec); err != nil {
			if !errors.Is(err, io.EOF) {
				torn = true
				s.cfg.Logf("wire-serve: journal %s: torn record after offset %d: %v; truncating",
					filepath.Base(path), goodOffset, err)
			}
			break
		}
		if rec.Type != "plan" || rec.Snapshot == nil || rec.Response == nil {
			goodOffset = dec.InputOffset()
			continue
		}
		if rec.Seq <= sess.lastSeq {
			// Duplicate interval (two writers during a crash window, or a
			// replayed retry): first write wins, like the live seq cache.
			goodOffset = dec.InputOffset()
			continue
		}
		rec.Snapshot.Workflow = wf
		dec2, degraded, _, perr := planStep(sess, rec.Snapshot)
		if perr != nil {
			s.cfg.Logf("wire-serve: journal %s: replaying seq %d: %v", filepath.Base(path), rec.Seq, perr)
		} else if degraded != rec.Response.Degraded || !sameDecision(dec2, rec.Response.Decision) {
			s.cfg.Logf("wire-serve: journal %s: seq %d replay diverged from recorded decision; keeping record",
				filepath.Base(path), rec.Seq)
		}
		// The recorded response is authoritative: it is what the client saw.
		sess.lastSeq = rec.Seq
		sess.lastResp = rec.Response
		sess.plans.Store(rec.Response.Iteration)
		goodOffset = dec.InputOffset()
	}
	if torn {
		if err := os.Truncate(path, goodOffset); err != nil {
			return fmt.Errorf("truncate torn tail: %w", err)
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
		return err
	}
	if sess.Tenant != "" {
		// Recovery bypasses the admission gate: the daemon already accepted
		// this session, so replay must never drop it — but its slot must
		// count against the tenant again.
		s.tenants.Reattach(sess.Tenant)
	}
	s.metrics.JournalReplayed()
	s.cfg.Logf("wire-serve: recovered session %s (%s, %d plan(s)) from journal", sess.ID, sess.Policy, sess.lastSeq)
	return nil
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
