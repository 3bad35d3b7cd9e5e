// Package wal is the repo's one write-ahead log: an append-only file of
// '\n'-terminated records, and the one place that decides how a record gets
// into such a file and how a damaged file is read back. It knows nothing about
// what a record says — the session WAL (internal/service) and the live-run
// journal (internal/exec) are record schemas over it.
//
// The discipline, in one place:
//
//   - Append issues ONE Write of whole records and remembers the offset after
//     the last whole record. A failed or short write is truncated back to that
//     offset, so the file stays a run of whole records; the record is kept and
//     written ahead of the next append. A second failure in a row, or a failed
//     truncate, is ErrBroken: the caller detaches the log.
//   - The fsync policy (record | interval | off) runs after the write; Close
//     syncs whatever the policy left in flight.
//   - A guard, when the owner supplies one, runs before the write and again
//     after the sync (the session WAL's fence check).
//   - Replay hands whole lines to the schema and reports the offset after the
//     last one it accepted; Cut truncates there. That offset is always just
//     past a newline, and Open drops a last line that lacks one, so an append
//     always starts its own line.
package wal

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"time"
)

// Sync policy modes: when an append reaches stable storage.
const (
	// SyncRecord syncs every append before it returns: zero loss window, one
	// fsync per record. Any unrecognized mode means this one.
	SyncRecord = "record"
	// SyncInterval syncs at most once per Policy.Every (plus on Close): a
	// bounded power-loss window, amortized fsync cost. Readers in the same
	// OS see unsynced writes, so only an OS crash can lose the tail — and a
	// torn tail is cut back to the last whole record on replay.
	SyncInterval = "interval"
	// SyncOff never syncs; the OS flushes when it pleases.
	SyncOff = "off"
)

// Policy is a log's fsync policy.
type Policy struct {
	Mode  string
	Every time.Duration
}

// File is the part of *os.File a Log uses; tests substitute one whose writes
// fail or come up short (Log.Wrap).
type File interface {
	io.Writer
	Sync() error
	Truncate(size int64) error
	Close() error
}

// ErrBroken is returned by Append when the file can no longer be kept a run
// of whole records — a failed write could not be truncated away, or two
// appends in a row failed. The caller stops appending.
var ErrBroken = errors.New("wal: log unusable")

// Log is one open log file. It is not safe for concurrent use; the owner
// serializes Append, Close and Wrap.
type Log struct {
	f File
	// size is the file's length after the last whole record: where the next
	// record starts, and what a failed write is truncated back to.
	size int64
	// pending is the one record whose write failed (and was truncated away);
	// the next append writes it first, so the log has no hole once the disk
	// recovers.
	pending  []byte
	policy   Policy
	guard    func() error
	lastSync time.Time
}

// Open opens (creating it if need be) the log at path for appending. A last
// line without its newline — a torn write nobody replayed and cut — is
// dropped, so the next record starts its own line. guard may be nil.
func Open(path string, policy Policy, guard func() error) (*Log, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	size, err := wholeLines(f, path)
	if err != nil {
		f.Close()
		return nil, err
	}
	if guard == nil {
		guard = func() error { return nil }
	}
	return &Log{f: f, size: size, policy: policy, guard: guard}, nil
}

// wholeLines returns the length of f, the open log at path, first truncating
// a last line that lacks its newline. Only such a file is read beyond its
// last byte.
func wholeLines(f *os.File, path string) (int64, error) {
	st, err := f.Stat()
	if err != nil || st.Size() == 0 {
		return 0, err
	}
	var last [1]byte
	if _, err := f.ReadAt(last[:], st.Size()-1); err != nil || last[0] == '\n' {
		return st.Size(), err
	}
	end, _, err := Replay(path, func([]byte) error { return nil })
	if err != nil {
		return 0, err
	}
	return end, f.Truncate(end)
}

// Wrap replaces the log's file with wrap(file): the seam fault-injection
// tests use.
func (l *Log) Wrap(wrap func(File) File) { l.f = wrap(l.f) }

// Append writes rec — whole records, each ending in '\n' — with a single
// Write and syncs it per the policy. The guard runs first and again AFTER the
// sync: the session WAL's adopter fences first and copies second, so a stale
// writer that raced the handoff either appended before the fence landed (the
// copy includes the record) or sees the fence here and gets the guard's error
// — in which case the caller must withhold what the record acknowledges.
//
// A failed or short write is truncated away, so later appends are not
// stranded behind garbage that replay would cut off together with everything
// after it. The record itself is kept and written ahead of the next append.
// When that fails too, or the truncate does, the error wraps ErrBroken.
func (l *Log) Append(rec []byte) error {
	if err := l.guard(); err != nil {
		return err
	}
	if len(l.pending) > 0 {
		if err := l.write(l.pending); err != nil {
			return fmt.Errorf("%w: second failed append in a row: %v", ErrBroken, err)
		}
		l.pending = nil
	}
	if err := l.write(rec); err != nil {
		return err
	}
	if err := l.sync(); err != nil {
		return err
	}
	return l.guard()
}

// write issues the one Write of b. A partial write is cut back off the file
// and b — the caller's buffer — copied into pending.
func (l *Log) write(b []byte) error {
	n, err := l.f.Write(b)
	if err == nil {
		l.size += int64(n)
		return nil
	}
	if terr := l.f.Truncate(l.size); terr != nil {
		return fmt.Errorf("%w: write: %v; truncating back to offset %d: %v", ErrBroken, err, l.size, terr)
	}
	l.pending = append([]byte(nil), b...)
	return err
}

// sync applies the fsync policy after one append.
func (l *Log) sync() error {
	switch l.policy.Mode {
	case SyncOff:
		return nil
	case SyncInterval:
		now := time.Now()
		if !l.lastSync.IsZero() && now.Sub(l.lastSync) < l.policy.Every {
			return nil
		}
		l.lastSync = now
	}
	return l.f.Sync()
}

// Close closes the file. A log that is kept (not about to be deleted) first
// gets the record a failed write left pending — the guard applies as to any
// append — and is synced, so the interval and off policies leave nothing in
// flight on a clean shutdown.
func (l *Log) Close(keep bool) error {
	var err error
	if keep {
		if len(l.pending) > 0 {
			err = l.Append(nil)
		}
		err = errors.Join(err, l.f.Sync())
	}
	return errors.Join(err, l.f.Close())
}

// Replay reads the log at path line by line and hands each whole non-empty
// line, without its newline, to fn until fn returns an error or the file ends.
// The line is only valid during the call. end is the offset just past the
// last line fn accepted — always 0 or just past a newline. torn says why the
// file is not whole records all the way to its end: fn's error, or that the
// last line has no newline; nil when every byte was accepted. err is the failure to read. Memory is bounded by the longest
// line, not the file.
func Replay(path string, fn func(line []byte) error) (end int64, torn, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, nil, err
	}
	defer f.Close()
	br := bufio.NewReaderSize(f, 64<<10)
	var long []byte // a line longer than br's buffer, pieced together
	for {
		line, rerr := br.ReadSlice('\n')
		if len(long) > 0 || rerr == bufio.ErrBufferFull {
			long = append(long, line...)
			line = long
		}
		switch rerr {
		case nil:
			if len(line) > 1 {
				if torn = fn(line[:len(line)-1]); torn != nil {
					return end, torn, nil
				}
			}
			end += int64(len(line))
			long = long[:0]
		case bufio.ErrBufferFull:
		case io.EOF:
			if len(line) > 0 {
				torn = errors.New("wal: last line has no newline") // a write the crash cut short
			}
			return end, torn, nil
		default:
			return end, nil, rerr
		}
	}
}

// Cut truncates the log at path to end, the offset a Replay of it reported:
// the torn-tail cut.
func Cut(path string, end int64) error { return os.Truncate(path, end) }

// Copy copies the log at src over dst and syncs dst: a handoff must not serve
// from a copy a power loss could take back.
func Copy(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.OpenFile(dst, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err = io.Copy(out, in); err == nil {
		err = out.Sync()
	}
	return errors.Join(err, out.Close())
}
