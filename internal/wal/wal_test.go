package wal_test

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/wal"
	"repro/internal/wal/waltest"
)

func record(i int) []byte { return []byte(fmt.Sprintf("{\"i\":%d}\n", i)) }

func records(from, to int) string {
	var b strings.Builder
	for i := from; i <= to; i++ {
		b.Write(record(i))
	}
	return b.String()
}

// openWith opens a fresh log holding records 1 and 2.
func openWith(t *testing.T, policy wal.Policy, guard func() error) (*wal.Log, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "log")
	l, err := wal.Open(path, policy, guard)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 2; i++ {
		if err := l.Append(record(i)); err != nil {
			t.Fatal(err)
		}
	}
	return l, path
}

func fileIs(t *testing.T, path, want string) {
	t.Helper()
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != want {
		t.Fatalf("file holds %q, want %q", got, want)
	}
}

// TestFailedWriteIsRepaired: one failed write — outright or short — leaves no
// partial bytes in the file, and the record it carried reaches the log ahead
// of the next append, or on Close when there is none.
func TestFailedWriteIsRepaired(t *testing.T) {
	for _, short := range []bool{false, true} {
		for _, next := range []string{"append", "close"} {
			t.Run(fmt.Sprintf("short=%v/%s", short, next), func(t *testing.T) {
				l, path := openWith(t, wal.Policy{}, nil)
				l.Wrap(waltest.Faulty{FailWrites: 1, Short: short}.Under())
				err := l.Append(record(3))
				if err == nil || errors.Is(err, wal.ErrBroken) {
					t.Fatalf("failed append returned %v, want a plain error", err)
				}
				fileIs(t, path, records(1, 2))
				want := records(1, 3)
				if next == "append" {
					if err := l.Append(record(4)); err != nil {
						t.Fatal(err)
					}
					want = records(1, 4)
				}
				if err := l.Close(true); err != nil {
					t.Fatal(err)
				}
				fileIs(t, path, want)
			})
		}
	}
}

// TestBrokenLog covers the two cases a file cannot be kept whole records: a
// second failed append in a row, and a truncate that fails too. Both return
// ErrBroken; what is on disk replays to the clean prefix and, once cut there,
// takes appends again.
func TestBrokenLog(t *testing.T) {
	cases := []struct {
		name     string
		fault    waltest.Faulty
		brokenAt int
		torn     bool
	}{
		{"two failed appends in a row", waltest.Faulty{FailWrites: 2}, 4, false},
		{"truncate fails", waltest.Faulty{FailWrites: 1, Short: true, FailTruncate: true}, 3, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			l, path := openWith(t, wal.Policy{}, nil)
			l.Wrap(tc.fault.Under())
			for i := 3; i <= tc.brokenAt; i++ {
				err := l.Append(record(i))
				if err == nil || errors.Is(err, wal.ErrBroken) != (i == tc.brokenAt) {
					t.Fatalf("append %d returned %v", i, err)
				}
			}
			// Dropped without Close(true): the detaching owner may be gone.
			_ = l.Close(false)

			end, torn, err := wal.Replay(path, func([]byte) error { return nil })
			if err != nil || end != int64(len(records(1, 2))) || (torn != nil) != tc.torn {
				t.Fatalf("replay: end %d torn %v err %v", end, torn, err)
			}
			if err := wal.Cut(path, end); err != nil {
				t.Fatal(err)
			}
			l2, err := wal.Open(path, wal.Policy{}, nil)
			if err != nil {
				t.Fatal(err)
			}
			if err := l2.Append(record(9)); err != nil {
				t.Fatal(err)
			}
			if err := l2.Close(true); err != nil {
				t.Fatal(err)
			}
			fileIs(t, path, records(1, 2)+string(record(9)))
		})
	}
}

// TestGuard: the guard runs before the write (an error there writes nothing)
// and again after the sync (the record is in the file, the error still
// returned — the owner withholds what the record acknowledges).
func TestGuard(t *testing.T) {
	stop := errors.New("fenced")
	var calls, failAt int
	l, path := openWith(t, wal.Policy{}, func() error {
		calls++
		if calls == failAt {
			return stop
		}
		return nil
	})
	if calls != 4 {
		t.Fatalf("guard ran %d times for 2 appends, want 4", calls)
	}
	failAt = calls + 2 // after the write of record 3
	if err := l.Append(record(3)); !errors.Is(err, stop) {
		t.Fatalf("append returned %v, want the guard's error", err)
	}
	fileIs(t, path, records(1, 3))
	failAt = calls + 1 // before the write of record 4
	if err := l.Append(record(4)); !errors.Is(err, stop) {
		t.Fatalf("append returned %v, want the guard's error", err)
	}
	fileIs(t, path, records(1, 3))
}

// syncCounter counts the syncs that reach the file.
type syncCounter struct {
	wal.File
	n int
}

func (s *syncCounter) Sync() error { s.n++; return s.File.Sync() }

// TestSyncPolicy pins when each mode syncs: every record; the first record
// and then not again inside the interval; never — and Close(true) syncs once
// under all of them.
func TestSyncPolicy(t *testing.T) {
	for _, tc := range []struct {
		policy wal.Policy
		want   int
	}{
		{wal.Policy{Mode: wal.SyncRecord}, 3},
		{wal.Policy{}, 3},
		{wal.Policy{Mode: wal.SyncInterval, Every: time.Hour}, 1},
		{wal.Policy{Mode: wal.SyncInterval}, 3},
		{wal.Policy{Mode: wal.SyncOff}, 0},
	} {
		t.Run(fmt.Sprintf("%+v", tc.policy), func(t *testing.T) {
			l, err := wal.Open(filepath.Join(t.TempDir(), "log"), tc.policy, nil)
			if err != nil {
				t.Fatal(err)
			}
			var sc *syncCounter
			l.Wrap(func(f wal.File) wal.File { sc = &syncCounter{File: f}; return sc })
			for i := 1; i <= 3; i++ {
				if err := l.Append(record(i)); err != nil {
					t.Fatal(err)
				}
			}
			if sc.n != tc.want {
				t.Errorf("%d syncs after 3 appends, want %d", sc.n, tc.want)
			}
			if err := l.Close(true); err != nil {
				t.Fatal(err)
			}
			if sc.n != tc.want+1 {
				t.Errorf("Close(true) made %d syncs, want 1", sc.n-tc.want)
			}
		})
	}
}

// TestReplay drives the line reader with lines longer than its buffer, empty
// lines, a rejected line, a partial tail and a file that cannot be read.
func TestReplay(t *testing.T) {
	long := strings.Repeat("x", 200<<10)
	input := strings.Join([]string{"a", long, "", "b", long + long, "c"}, "\n") + "\n"
	dir := t.TempDir()
	path := filepath.Join(dir, "log")
	write := func(content string) {
		t.Helper()
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	var got []string
	collect := func(line []byte) error { got = append(got, string(line)); return nil }

	write(input)
	end, torn, err := wal.Replay(path, collect)
	if err != nil || torn != nil || end != int64(len(input)) {
		t.Fatalf("end %d (want %d) torn %v err %v", end, len(input), torn, err)
	}
	if want := []string{"a", long, "b", long + long, "c"}; fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("lines differ: got %d lines", len(got))
	}

	reject := errors.New("not a record")
	end, torn, err = wal.Replay(path, func(line []byte) error {
		if string(line) == "b" {
			return reject
		}
		return nil
	})
	if want := int64(len("a\n" + long + "\n\n")); err != nil || !errors.Is(torn, reject) || end != want {
		t.Fatalf("rejected line: end %d (want %d) torn %v err %v", end, want, torn, err)
	}

	for _, tail := range []string{"partial", long} {
		got = nil
		write(input + tail)
		end, torn, err = wal.Replay(path, collect)
		if err != nil || torn == nil || end != int64(len(input)) || len(got) != 5 {
			t.Fatalf("partial tail: end %d torn %v err %v lines %d", end, torn, err, len(got))
		}
	}

	// A directory opens but does not read.
	if end, torn, err := wal.Replay(dir, collect); err == nil || torn != nil || end != 0 {
		t.Fatalf("unreadable file: end %d torn %v err %v", end, torn, err)
	}
}

// TestCopy: the copy is byte-identical and replaces what was at dst.
func TestCopy(t *testing.T) {
	dir := t.TempDir()
	src, dst := filepath.Join(dir, "src"), filepath.Join(dir, "dst")
	if err := os.WriteFile(src, []byte(records(1, 50)), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dst, []byte(records(1, 90)), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := wal.Copy(src, dst); err != nil {
		t.Fatal(err)
	}
	fileIs(t, dst, records(1, 50))
	if err := wal.Copy(filepath.Join(dir, "missing"), dst); err == nil {
		t.Fatal("copying a missing log succeeded")
	}
}

// reopen cuts a valid log of n records (record i padded by pad*i bytes) at
// byte offset cut, reopens it — through Replay and Cut as recovery does, or
// with Open alone — appends one record, and requires every record that was
// whole before the cut plus the new one to read back from a file that ends in
// a newline. It returns the uncut log's size; cut wraps around it.
func reopen(t *testing.T, n, pad, cut int, replayFirst bool) (size int) {
	t.Helper()
	var log bytes.Buffer
	var ends []int
	for i := 0; i < n; i++ {
		fmt.Fprintf(&log, "{\"i\":%d,\"pad\":\"%s\"}\n", i, strings.Repeat("x", pad*i))
		ends = append(ends, log.Len())
	}
	cut %= log.Len() + 1
	path := filepath.Join(t.TempDir(), "log")
	if err := os.WriteFile(path, log.Bytes()[:cut], 0o644); err != nil {
		t.Fatal(err)
	}
	keep := 0 // bytes of records that are whole before the cut
	for _, e := range ends {
		if e <= cut {
			keep = e
		}
	}

	if replayFirst {
		end, torn, err := wal.Replay(path, func([]byte) error { return nil })
		if err != nil || end != int64(keep) || (torn != nil) != (cut > keep) {
			t.Fatalf("cut %d: replay end %d torn %v err %v", cut, end, torn, err)
		}
		if err := wal.Cut(path, end); err != nil {
			t.Fatal(err)
		}
	}
	l, err := wal.Open(path, wal.Policy{Mode: wal.SyncOff}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append([]byte("{\"new\":true}\n")); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(true); err != nil {
		t.Fatal(err)
	}

	fileIs(t, path, log.String()[:keep]+"{\"new\":true}\n")
	return log.Len()
}

// TestReopenAtEveryOffset cuts a small log at every byte offset, under both
// reopen paths.
func TestReopenAtEveryOffset(t *testing.T) {
	for cut, size := 0, 0; cut <= size; cut++ {
		size = reopen(t, 5, 3, cut, true)
		reopen(t, 5, 3, cut, false)
	}
}

// FuzzReopen cuts logs of varied record sizes — past Open's backward read
// chunk and Replay's first buffer — at random offsets.
func FuzzReopen(f *testing.F) {
	f.Add(uint8(5), uint16(3), uint32(40), true)
	f.Add(uint8(3), uint16(3000), uint32(7000), false)
	f.Add(uint8(4), uint16(30000), uint32(150000), true)
	f.Add(uint8(1), uint16(0), uint32(0), false)
	f.Fuzz(func(t *testing.T, n uint8, pad uint16, cut uint32, replayFirst bool) {
		reopen(t, int(n%8)+1, int(pad), int(cut), replayFirst)
	})
}
