package service

import (
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dag"
	"repro/internal/monitor"
	"repro/internal/sim"
)

// Store errors.
var (
	// ErrMaxSessions is returned by Create when the store is full; the API
	// maps it to 429.
	ErrMaxSessions = errors.New("service: session limit reached")
	// ErrNotFound is returned for unknown session IDs; the API maps it
	// to 404.
	ErrNotFound = errors.New("service: session not found")
	// ErrDuplicateID is returned by CreateWithID and Insert when the ID is
	// already hosted; shard mode treats it as an idempotent-create signal.
	ErrDuplicateID = errors.New("service: session id already exists")
)

// Session is one hosted controller with its workflow. The session mutex
// serializes Plan and State calls — controllers are single-threaded MAPE
// loops — while different sessions plan fully in parallel.
type Session struct {
	ID       string
	Policy   string
	Workflow *dag.Workflow
	// Tenant, when non-empty, names the tenant this session was admitted
	// under; the registry releases its slot when the session goes away.
	// Set once at create/recovery, before the session is routable.
	Tenant string
	// DeadlineS is the session's soft deadline on its run clock (seconds,
	// 0 = none); plan handling flags a deadline miss when a snapshot passes
	// it with tasks remaining.
	DeadlineS float64

	// missRecorded latches the one-shot deadline-miss observation above.
	// Guarded by mu.
	missRecorded bool

	// mu guards ctrl and the planning state below (controllers keep
	// mutable run state).
	mu   sync.Mutex
	ctrl sim.Controller
	// lastSeq/lastBody are the exactly-once plan cache: a retried request
	// bearing lastSeq is answered with lastBody — the response body as it was
	// first sent and journaled, newline included — instead of re-planning.
	// Empty when that response could not be encoded (the retry is then a
	// seq_conflict like any other seq that is not the next).
	lastSeq  int64
	lastBody []byte
	// grouper is the scratch the plan handler folds the controller's
	// wavefront into; its groups are encoded before mu is released.
	grouper wavefrontGrouper
	// fallback answers plan requests when ctrl panics (lazily built).
	fallback sim.Controller
	// wal is the session's crash-recovery journal (nil when disabled).
	wal *journal
	// gone marks a session that was exported to a peer or fenced out by a
	// newer adoption: a handler that raced the handoff and already holds a
	// reference must answer 503 instead of releasing a decision this
	// shard can no longer journal authoritatively.
	gone bool
	// replay is the session's claim while its WAL replay has not ended well
	// (nil for a created session, and once the replay succeeded): the store
	// hands the session out only after the claim's latch opens.
	replay atomic.Pointer[claim]
	// snapScratch is the materialised snapshot of interval lastSeq — what the
	// controller last planned from and what the next delta body is folded
	// into — whenever baseOK is set. bodyScratch is the plan handler's decode
	// target: a delta's few records, or a full body that swaps in as the new
	// snapScratch once it validates. Reusing both keeps the per-plan
	// task-record arrays out of the allocator. Guarded by mu.
	snapScratch monitor.Snapshot
	bodyScratch monitor.Snapshot
	baseOK      bool

	createdAt time.Time
	// lastUsed is unix nanoseconds, written on every API touch; atomic so
	// the janitor can scan without taking every session's mutex.
	lastUsed atomic.Int64
	plans    atomic.Int64
}

// Controller runs fn with exclusive access to the session's controller and
// returns fn's result. All controller access must go through it.
func (s *Session) Controller(fn func(ctrl sim.Controller) error) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return fn(s.ctrl)
}

// resetBodyScratch returns the session's decode scratch zeroed for a fresh
// body. The Tasks backing array is kept (zeroed to full capacity first, so the
// decoder's element reuse can never leak an earlier body's record fields into
// one the new body leaves partial); everything else starts nil because those
// fields are small, may hold inner slices of their own, and are handed to
// snapScratch by reference when the body is a delta. The caller must hold
// s.mu.
func (s *Session) resetBodyScratch() *monitor.Snapshot {
	tasks := s.bodyScratch.Tasks[:cap(s.bodyScratch.Tasks)]
	clear(tasks)
	s.bodyScratch = monitor.Snapshot{Tasks: tasks[:0]}
	return &s.bodyScratch
}

// materialise validates a decoded plan body against the session's workflow
// and makes it the session's snapshot: a delta is folded into snapScratch, a
// full body trades places with it (body is left holding the old one's
// arrays). A rejected body leaves snapScratch exactly as it was. Whether
// snapScratch is the delta's base is the caller's check (baseOK). The caller
// must hold s.mu.
func (s *Session) materialise(body *monitor.Snapshot) error {
	if err := validateSnapshot(body, s.Workflow); err != nil {
		return err
	}
	if body.Delta {
		return s.snapScratch.ApplyDelta(body)
	}
	s.snapScratch, *body = *body, s.snapScratch
	// The session's DAG is authoritative; clients normally omit theirs.
	s.snapScratch.Workflow = s.Workflow
	return nil
}

// setWAL attaches the session's journal.
func (s *Session) setWAL(j *journal) {
	s.mu.Lock()
	s.wal = j
	s.mu.Unlock()
}

// takeWAL detaches and returns the session's journal (nil when absent).
func (s *Session) takeWAL() *journal {
	s.mu.Lock()
	j := s.wal
	s.wal = nil
	s.mu.Unlock()
	return j
}

// TenantTag returns the session's tenant identity (empty when untagged).
// Tenant is written once at create/recovery; the mutex makes the write
// visible to handlers that picked the session up concurrently.
func (s *Session) TenantTag() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.Tenant
}

// CreatedAt returns the session creation time.
func (s *Session) CreatedAt() time.Time { return s.createdAt }

// LastUsed returns the time of the last API touch.
func (s *Session) LastUsed() time.Time { return time.Unix(0, s.lastUsed.Load()) }

// Plans returns the number of plan requests served.
func (s *Session) Plans() int64 { return s.plans.Load() }

// Store is a concurrency-safe session registry with a capacity cap and
// idle-TTL eviction.
type Store struct {
	now func() time.Time
	max int

	mu       sync.Mutex
	sessions map[string]*Session
}

// NewStore returns a store holding at most max sessions (0 = unbounded).
// now supplies the clock; tests substitute a fake one.
func NewStore(max int, now func() time.Time) *Store {
	if now == nil {
		now = time.Now
	}
	return &Store{now: now, max: max, sessions: make(map[string]*Session)}
}

// newSessionID returns an opaque 128-bit hex ID.
func newSessionID() (string, error) {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "", fmt.Errorf("service: session id: %w", err)
	}
	return hex.EncodeToString(b[:]), nil
}

// NewSessionID returns a fresh opaque session ID in the store's format. The
// cluster router draws IDs itself so it can consistent-hash a session onto a
// shard before the create request is forwarded.
func NewSessionID() (string, error) { return newSessionID() }

// ValidSessionID reports whether id is acceptable as an externally assigned
// session ID: non-empty, bounded, and safe to embed in a journal file name.
func ValidSessionID(id string) bool {
	if id == "" || len(id) > 64 {
		return false
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case c >= '0' && c <= '9', c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '-', c == '_':
		default:
			return false
		}
	}
	return true
}

// Create registers a new session hosting ctrl for wf. It fails with
// ErrMaxSessions when the store is at capacity.
func (st *Store) Create(policy string, wf *dag.Workflow, ctrl sim.Controller) (*Session, error) {
	id, err := newSessionID()
	if err != nil {
		return nil, err
	}
	now := st.now()
	s := &Session{ID: id, Policy: policy, Workflow: wf, ctrl: ctrl, createdAt: now}
	s.lastUsed.Store(now.UnixNano())

	st.mu.Lock()
	defer st.mu.Unlock()
	if st.max > 0 && len(st.sessions) >= st.max {
		return nil, ErrMaxSessions
	}
	for {
		if _, taken := st.sessions[s.ID]; !taken {
			break
		}
		// 128-bit collisions are cosmically unlikely; retry regardless.
		if s.ID, err = newSessionID(); err != nil {
			return nil, err
		}
	}
	st.sessions[s.ID] = s
	return s, nil
}

// Insert makes a session routable: one exported and then kept, or a claimed
// one whose replay is still to come. It fails with ErrMaxSessions at capacity
// and ErrDuplicateID when the ID is already hosted.
func (st *Store) Insert(s *Session) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.max > 0 && len(st.sessions) >= st.max {
		return ErrMaxSessions
	}
	if _, taken := st.sessions[s.ID]; taken {
		return fmt.Errorf("%w: %s", ErrDuplicateID, s.ID)
	}
	st.sessions[s.ID] = s
	return nil
}

// CreateWithID registers a session under an externally assigned ID (the
// cluster router's consistent-hash placement). It fails with ErrDuplicateID
// when the ID is already hosted — the caller decides whether that is an
// idempotent retry or a protocol violation.
func (st *Store) CreateWithID(id, policy string, wf *dag.Workflow, ctrl sim.Controller) (*Session, error) {
	now := st.now()
	s := &Session{ID: id, Policy: policy, Workflow: wf, ctrl: ctrl, createdAt: now}
	s.lastUsed.Store(now.UnixNano())
	if err := st.Insert(s); err != nil {
		return nil, err
	}
	return s, nil
}

// Get returns the session and refreshes its idle timer. A claimed session is
// returned once its replay has ended: Get waits for it, running it here if
// no one has started it yet. A replay that failed answers ErrNotFound, one
// whose WAL a newer claim fenced meanwhile errFenced.
func (st *Store) Get(id string) (*Session, error) {
	s, err := st.lookup(id)
	if err != nil {
		return nil, err
	}
	s.lastUsed.Store(st.now().UnixNano())
	return s, nil
}

// lookup finds a hosted session and waits out its replay.
func (st *Store) lookup(id string) (*Session, error) {
	st.mu.Lock()
	s, ok := st.sessions[id]
	st.mu.Unlock()
	if !ok {
		return nil, ErrNotFound
	}
	if c := s.replay.Load(); c != nil {
		if err := c.wait(); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// drop removes s from the table if it is still the session hosted under its
// ID, and reports whether it was.
func (st *Store) drop(s *Session) bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.sessions[s.ID] != s {
		return false
	}
	delete(st.sessions, s.ID)
	return true
}

// Delete removes the session and its journal. An in-flight plan holding the
// session mutex finishes normally; the session is simply no longer routable.
func (st *Store) Delete(id string) error {
	s, err := st.lookup(id)
	if err != nil || !st.drop(s) {
		return ErrNotFound
	}
	s.takeWAL().close(true)
	return nil
}

// Detach removes the session from the table without touching its journal
// and returns it (nil when absent). The cluster export path uses it: the
// caller takes over the session's WAL file so a peer can adopt it.
func (st *Store) Detach(id string) *Session {
	s, err := st.lookup(id)
	if err != nil || !st.drop(s) {
		return nil
	}
	return s
}

// IDs snapshots the hosted session IDs (cluster rebalancing lists them to
// compute which sessions a topology change moves).
func (st *Store) IDs() []string {
	st.mu.Lock()
	defer st.mu.Unlock()
	out := make([]string, 0, len(st.sessions))
	for id := range st.sessions {
		out = append(out, id)
	}
	return out
}

// Len returns the number of live sessions.
func (st *Store) Len() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	return len(st.sessions)
}

// EvictIdleSessions removes every session idle for longer than ttl and
// returns them, so the caller can release their tenant slots. A non-positive
// ttl disables eviction.
func (st *Store) EvictIdleSessions(ttl time.Duration) []*Session {
	if ttl <= 0 {
		return nil
	}
	cutoff := st.now().Add(-ttl).UnixNano()
	st.mu.Lock()
	var evicted []*Session
	for id, s := range st.sessions {
		// A session still replaying is not idle, and it is not whole yet.
		if s.lastUsed.Load() < cutoff && s.replay.Load() == nil {
			delete(st.sessions, id)
			evicted = append(evicted, s)
		}
	}
	st.mu.Unlock()
	for _, s := range evicted {
		s.takeWAL().close(true)
	}
	return evicted
}
