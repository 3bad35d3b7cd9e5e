// Package waltest holds the fault-injecting file the log's own tests and the
// two schemas' tests put under a wal.Log through Log.Wrap.
package waltest

import (
	"errors"

	"repro/internal/wal"
)

// Faulty wraps a log's file and fails the next FailWrites writes — outright,
// or, with Short set, after putting half the bytes in the file (a short
// write). With FailTruncate set every Truncate is refused.
type Faulty struct {
	wal.File
	FailWrites   int
	Short        bool
	FailTruncate bool
}

func (f *Faulty) Write(p []byte) (int, error) {
	if f.FailWrites == 0 {
		return f.File.Write(p)
	}
	f.FailWrites--
	n := 0
	if f.Short {
		n, _ = f.File.Write(p[:len(p)/2])
	}
	return n, errors.New("injected: no space left on device")
}

func (f *Faulty) Truncate(size int64) error {
	if f.FailTruncate {
		return errors.New("injected: truncate refused")
	}
	return f.File.Truncate(size)
}

// Under returns the Log.Wrap argument that puts a copy of f under a log.
func (f Faulty) Under() func(wal.File) wal.File {
	return func(file wal.File) wal.File {
		f.File = file
		return &f
	}
}
