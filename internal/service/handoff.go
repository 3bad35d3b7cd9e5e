package service

// Session handoff between shards: fencing, WAL adoption, and export.
//
// The cluster moves a session between shards by moving its write-ahead log.
// Two paths exist:
//
//   - Directory adoption (unplanned death): the router hands a dead shard's
//     whole JournalDir to a surviving peer, which claims each WAL in it.
//   - File adoption (planned drain/join): the donor exports named sessions —
//     detaching them and closing their WALs — and the router hands the
//     resulting file paths to each session's new owner.
//
// Either way the adopter CLAIMS a WAL with the same fenced-copy protocol:
//
//   1. write <wal>.fence beside the source, recording the handoff epoch;
//   2. copy the source WAL into the adopter's own JournalDir;
//   3. insert the session latched and replay the copy on the pool;
//   4. leave the fenced source in place.
//
// The adoption is acknowledged after step 3's insert, not after the replay:
// a request for a claimed session waits for its replay (and runs it at once
// if the pool has not reached it), so the handoff costs the claim and each
// session's first request at most one replay. A replay that fails takes the
// session out again — it answers 404, as if the adoption had skipped it —
// and one whose WAL a newer claim fenced while it replayed is never served.
//
// Fencing closes the double-serve race with a process that still holds the
// source WAL (a shard wrongly declared dead, or a drained shard that was
// restarted from a stale snapshot of the world): the journal's append guard
// (journal.fenced, run by wal.Log.Append) re-reads the fence after every
// synced write, so a stale writer either appended
// before the fence landed — in which case the copy includes the record and
// the adopter replays it — or it observes the fence and withholds the decision.
// A record can never be released to a client by the stale process and be
// absent from the adopter's copy. Startup recovery skips fenced WALs, so a
// restarted shard re-enters the cluster empty instead of resurrecting
// sessions that now live elsewhere.
//
// The source WAL is kept (fenced) rather than deleted so a retried adoption
// of the same directory or file set is idempotent, and so an aborted planned
// migration still leaves the files where a death failover would look for
// them. Epochs are issued by the router, strictly increasing per topology
// operation; a shard rejects adopt/export requests carrying an epoch below
// the highest it has seen (a stale router or a replayed request).

import (
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/parallel"
	"repro/internal/wal"
)

// errFenced is returned by a journal append when a peer has claimed the
// session's WAL at a higher epoch: this process is stale for the session and
// must withhold the decision.
var errFenced = errors.New("service: session journal fenced by a newer adoption")

// fenced is the guard wal.Log.Append runs before the write and after the
// sync.
func (j *journal) fenced() error {
	if fencedPast(j.path, j.claimEpoch) {
		return errFenced
	}
	return nil
}

// fenceRecord is the content of a <wal>.fence file.
type fenceRecord struct {
	// Epoch is the handoff epoch the claim was made at.
	Epoch int64 `json:"epoch"`
	// From names the shard the session was taken over from (debugging aid).
	From string `json:"from,omitempty"`
}

func fencePath(walPath string) string { return walPath + ".fence" }

// writeFence publishes a claim on walPath at epoch. The write is staged to a
// temp file and renamed so a concurrent reader never sees a partial fence.
func writeFence(walPath string, epoch int64, from string) error {
	b, err := json.Marshal(fenceRecord{Epoch: epoch, From: from})
	if err != nil {
		return err
	}
	tmp := fencePath(walPath) + ".tmp"
	if err := os.WriteFile(tmp, b, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, fencePath(walPath))
}

// readFence reports whether walPath is fenced and at what epoch. An
// unreadable fence body still fences — at the highest possible epoch, since
// its true epoch is unknown and serving anyway risks a double-serve.
func readFence(walPath string) (epoch int64, fenced bool) {
	b, err := os.ReadFile(fencePath(walPath))
	if err != nil {
		return 0, false
	}
	var fr fenceRecord
	if json.Unmarshal(b, &fr) != nil {
		return math.MaxInt64, true
	}
	return fr.Epoch, true
}

// fencedPast reports whether walPath carries a fence from a claim NEWER than
// claimEpoch.
func fencedPast(walPath string, claimEpoch int64) bool {
	ep, fenced := readFence(walPath)
	return fenced && ep > claimEpoch
}

// sessionIDFromWAL extracts the session ID a WAL file name encodes, or ""
// when the name is not a valid session WAL.
func sessionIDFromWAL(path string) string {
	name := filepath.Base(path)
	if !strings.HasSuffix(name, ".wal") {
		return ""
	}
	id := strings.TrimSuffix(name, ".wal")
	if !ValidSessionID(id) {
		return ""
	}
	return id
}

// AdoptJournalDir claims every session WAL in dir for this server at the
// given handoff epoch (the death-failover path: dir is a dead shard's whole
// journal directory). total counts every session in the directory this
// server now hosts — including ones already adopted by an earlier, partially
// acknowledged attempt — so a retried handoff reports the full count; fresh
// counts only sessions newly claimed by this call. The returned error
// covers only an unreadable directory.
func (s *Server) AdoptJournalDir(dir string, epoch int64, from string) (total, fresh int, err error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, 0, err
	}
	var srcs []string
	for _, e := range entries {
		if !e.IsDir() && filepath.Ext(e.Name()) == ".wal" {
			srcs = append(srcs, filepath.Join(dir, e.Name()))
		}
	}
	claimed := make(map[string]bool)
	for i, c := range s.adoptWALs(srcs, epoch, from) {
		total += c.total
		fresh += c.fresh
		if c.total > 0 {
			claimed[strings.TrimSuffix(filepath.Base(srcs[i]), ".wal")] = true
		}
	}
	// A WAL consumed by an earlier attempt of this same handoff leaves only
	// its fence behind; if the session is hosted here, it is part of this
	// handoff and belongs in total.
	for _, e := range entries {
		name := e.Name()
		if !strings.HasSuffix(name, ".wal.fence") {
			continue
		}
		id := strings.TrimSuffix(name, ".wal.fence")
		if claimed[id] || !ValidSessionID(id) {
			continue
		}
		if _, statErr := os.Stat(filepath.Join(dir, id+".wal")); statErr == nil {
			continue // WAL still present: adoptWAL above already decided
		}
		if _, getErr := s.store.Get(id); getErr == nil {
			total++
		}
	}
	return total, fresh, nil
}

// AdoptJournalFiles claims the named session WALs (the planned-migration
// path: paths come from a donor's export response). Counting follows
// AdoptJournalDir.
func (s *Server) AdoptJournalFiles(paths []string, epoch int64, from string) (total, fresh int) {
	for i, c := range s.adoptWALs(paths, epoch, from) {
		total += c.total
		fresh += c.fresh
		if c.total == 0 {
			// Retried handoff whose earlier attempt already consumed the
			// file: hosted here means ours to count.
			p := paths[i]
			if id := sessionIDFromWAL(p); id != "" {
				if _, statErr := os.Stat(p); statErr != nil {
					if _, getErr := s.store.Get(id); getErr == nil {
						total++
					}
				}
			}
		}
	}
	return total, fresh
}

// adoptCount is adoptWAL's verdict on one WAL.
type adoptCount struct{ total, fresh int }

// adoptWALs claims every WAL in paths and returns the verdicts in input
// order. Sessions are independent — each claim fences and copies its own files
// and only meets the others in the store — so the claims run on the bounded
// pool, the fsync of each copy included. Paths naming the same session (one
// file name in several directories) would race for one local slot; they are
// claimed by one worker, in input order, as a serial walk would.
func (s *Server) adoptWALs(paths []string, epoch int64, from string) []adoptCount {
	out := make([]adoptCount, len(paths))
	var groups [][]int
	byName := make(map[string]int)
	for i, p := range paths {
		g, ok := byName[filepath.Base(p)]
		if !ok {
			g = len(groups)
			byName[filepath.Base(p)] = g
			groups = append(groups, nil)
		}
		groups[g] = append(groups[g], i)
	}
	_ = parallel.ForEach(len(groups), parallel.Config{}, func(g int) error { // adoptWAL logs what it skips; nothing fails the walk
		for _, i := range groups[g] {
			out[i].total, out[i].fresh = s.adoptWAL(paths[i], epoch, from)
		}
		return nil
	})
	return out
}

// adoptWAL claims one session WAL via the fenced-copy protocol. It returns
// (1, 1) for a newly claimed session, (1, 0) for one this server already
// hosts, and (0, 0) when the WAL is not adoptable (claimed by a later epoch,
// invalid, or unreadable — all logged, none fatal: the cluster retries). The
// replay of a new claim is still to come when it returns.
func (s *Server) adoptWAL(src string, epoch int64, from string) (total, fresh int) {
	id := sessionIDFromWAL(src)
	if id == "" {
		s.cfg.Logf("wire-serve: adopt: %s: not a session WAL; skipping", src)
		return 0, 0
	}
	if sess, err := s.store.Get(id); err == nil {
		// Already hosted — normally an idempotent re-adopt: the local copy
		// is authoritative and the source stays fenced in place. One
		// exception: an UNFENCED source carrying a newer epoch than our own
		// claim means the session has lived elsewhere since this process
		// last claimed it (a restarted shard that replayed its WALs before a
		// failover fenced them). The incoming copy supersedes the stale
		// local session.
		var held int64
		sess.mu.Lock()
		if sess.wal != nil {
			held = sess.wal.claimEpoch
		}
		sess.mu.Unlock()
		if _, srcFenced := readFence(src); srcFenced || epoch <= held {
			return 1, 0
		}
		// Epochs order CLAIMS, not data. A migrated copy arriving under a
		// fresh op epoch can still carry staler state than the live session
		// (an orphan from a client-side-timed-out handoff, re-exported by a
		// later repair pass). A session's plan seq is monotone — never let
		// an adopt regress it: keep the fresher lineage and fence the stale
		// source so it stops resurfacing. Keeping local additionally
		// requires the local copy to be a viable WRITER — a session whose
		// own WAL was fenced by some interrupted handoff can only withhold
		// decisions, so an equal-data migrated copy claimed at this epoch
		// supersedes it.
		sess.mu.Lock()
		heldSeq := sess.lastSeq
		sess.mu.Unlock()
		if srcSeq := walLastSeq(src); srcSeq <= heldSeq && !fencedPast(s.journalPath(id), held) {
			s.cfg.Logf("wire-serve: adopt: session %s: migrated copy (seq %d) is behind the live session (seq %d); keeping local, fencing the stale source", id, srcSeq, heldSeq)
			if err := writeFence(src, epoch, from); err != nil {
				s.cfg.Logf("wire-serve: adopt: session %s: fencing stale source: %v", id, err)
			}
			return 1, 0
		}
		s.cfg.Logf("wire-serve: adopt: session %s held from a stale claim (epoch %d < %d); replacing with the migrated copy", id, held, epoch)
		if s.store.drop(sess) {
			sess.mu.Lock()
			sess.gone = true
			j := sess.wal
			sess.wal = nil
			tenant := sess.Tenant
			sess.mu.Unlock()
			if j != nil {
				j.close(false)
			}
			if tenant != "" {
				// The replay of the claim below reattaches the migrated
				// copy's slot.
				s.tenants.Release(tenant)
			}
		}
	}
	dst := s.journalPath(id)
	if filepath.Clean(src) == filepath.Clean(dst) {
		// Adopting out of our own journal dir — a session migrating home
		// (rejoin). Lift any fence our own claim supersedes.
		if ep, fenced := readFence(src); fenced {
			if ep > epoch {
				s.cfg.Logf("wire-serve: adopt: session %s claimed at epoch %d > %d; not ours", id, ep, epoch)
				return 0, 0
			}
			if err := os.Remove(fencePath(src)); err != nil {
				s.cfg.Logf("wire-serve: adopt: session %s: clearing fence: %v", id, err)
				return 0, 0
			}
		}
		return s.adoptClaim(id, src, epoch, false)
	}
	if ep, fenced := readFence(src); fenced && ep > epoch {
		s.cfg.Logf("wire-serve: adopt: session %s claimed at epoch %d > %d; not ours", id, ep, epoch)
		return 0, 0
	}
	if fencedPast(dst, epoch) {
		// Our own slot for this session is claimed at a newer epoch: a later
		// operation already moved it somewhere else. Not ours to host.
		s.cfg.Logf("wire-serve: adopt: session %s: local journal slot claimed at a newer epoch; not ours", id)
		return 0, 0
	}
	// Same data-freshness guard for the slot on disk: if our own journal
	// copy of this session is AHEAD of the migrated one, ours is the live
	// lineage and the incoming file is a stale orphan — recover ours
	// instead of overwriting it.
	// (A missing or create-only local slot is never ahead; src is not read.)
	if dstSeq := walLastSeq(dst); dstSeq > 0 && dstSeq > walLastSeq(src) {
		s.cfg.Logf("wire-serve: adopt: session %s: local journal copy (seq %d) is ahead of the migrated one; recovering local, fencing the stale source", id, dstSeq)
		if err := writeFence(src, epoch, from); err != nil {
			s.cfg.Logf("wire-serve: adopt: session %s: fencing stale source: %v", id, err)
			return 0, 0
		}
		if ep, fenced := readFence(dst); fenced && ep <= epoch {
			if err := os.Remove(fencePath(dst)); err != nil {
				s.cfg.Logf("wire-serve: adopt: session %s: clearing stale fence: %v", id, err)
				return 0, 0
			}
		}
		return s.adoptClaim(id, dst, epoch, false)
	}
	// Fence FIRST, copy SECOND — the ordering the stale-writer check in
	// journal.fenced relies on.
	if err := writeFence(src, epoch, from); err != nil {
		s.cfg.Logf("wire-serve: adopt: session %s: fencing: %v", id, err)
		return 0, 0
	}
	if err := wal.Copy(src, dst); err != nil {
		s.cfg.Logf("wire-serve: adopt: session %s: copying WAL: %v", id, err)
		return 0, 0
	}
	// A stale fence on dst — left from when the session migrated AWAY from
	// this shard under an earlier epoch — would make the next restart skip
	// the now-live copy. Our claim supersedes it.
	if ep, fenced := readFence(dst); fenced && ep <= epoch {
		if err := os.Remove(fencePath(dst)); err != nil {
			s.cfg.Logf("wire-serve: adopt: session %s: clearing stale fence: %v", id, err)
			return 0, 0
		}
	}
	return s.adoptClaim(id, dst, epoch, true)
}

// adoptClaim ends adoptWAL with the claim of the WAL at path, counting as
// adoptWAL does. removeCopy says path is the copy this adoption made: a claim
// that cannot be made, or whose replay fails, deletes it.
func (s *Server) adoptClaim(id, path string, epoch int64, removeCopy bool) (total, fresh int) {
	err := s.claimWAL(id, path, epoch, removeCopy)
	switch {
	case err == nil:
		return 1, 1
	case errors.Is(err, ErrDuplicateID):
		return 1, 0
	}
	s.cfg.Logf("wire-serve: adopt: session %s: %v", id, err)
	if removeCopy {
		_ = os.Remove(path) // nothing hosts it; the source stays fenced
	}
	return 0, 0
}

// walLastSeq scans a WAL and returns the highest plan sequence it records —
// 0 for a create-only, missing, or unreadable file. Conservative on errors:
// an unreadable migrated copy must never displace a live session, and a
// missing local slot never blocks an adoption. It decodes type and seq only
// (readHead): the workflow, snapshots and responses are syntax-checked but
// never materialized.
func walLastSeq(path string) int64 {
	var last int64
	// Whatever stops the scan, what it saw so far stands.
	_, _, _ = wal.Replay(path, func(line []byte) error {
		typ, seq, err := readHead(line)
		if err != nil {
			return err
		}
		if typ == "plan" && seq > last {
			last = seq
		}
		return nil
	})
	return last
}

// exportSession detaches one session for migration to a peer: it is removed
// from the store, its in-flight plan (if any) is waited out, and its WAL —
// which at that point contains every decision ever released for it — is
// closed and its path returned. A session without a WAL cannot migrate by
// file; it is re-inserted and reported as not exportable.
func (s *Server) exportSession(id string) (walPath string, ok bool) {
	sess := s.store.Detach(id)
	if sess == nil {
		return "", false
	}
	sess.mu.Lock()
	sess.gone = true
	j := sess.wal
	sess.wal = nil
	sess.mu.Unlock()
	if j == nil {
		// Journaling was disabled for this session (disk trouble at
		// create). Keep serving it here rather than dropping state.
		sess.mu.Lock()
		sess.gone = false
		sess.mu.Unlock()
		if err := s.store.Insert(sess); err != nil {
			s.cfg.Logf("wire-serve: export: session %s has no WAL and could not be re-inserted: %v", id, err)
		} else {
			s.cfg.Logf("wire-serve: export: session %s has no WAL; keeping it local", id)
		}
		return "", false
	}
	j.close(false)
	if tenant := sess.TenantTag(); tenant != "" {
		// The session now spends on its adopter's ledger.
		s.tenants.Release(tenant)
	}
	return j.path, true
}
