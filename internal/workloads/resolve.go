package workloads

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"

	"repro/internal/dag"
	"repro/internal/dagio"
)

// Resolve materializes a create request's workflow source, the rules a
// session create and a live-run create share: an inline dagio document, or a
// catalogue run by key, generated from seed (0 means 1). It returns the
// effective seed, which is what a journal records for a keyed workflow; for an
// inline document it is 0.
func Resolve(doc *dagio.Document, key string, seed int64) (*dag.Workflow, int64, error) {
	switch {
	case doc != nil && key != "":
		return nil, 0, fmt.Errorf("workflow and workflow_key are mutually exclusive")
	case doc != nil:
		wf, err := dagio.Decode(doc)
		return wf, 0, err
	case key != "":
		run, ok := ByKey(key)
		if !ok {
			return nil, 0, fmt.Errorf("unknown workflow_key %q (known: %v)", key, Keys())
		}
		if seed == 0 {
			seed = 1
		}
		return run.Generate(seed), seed, nil
	default:
		return nil, 0, fmt.Errorf("one of workflow or workflow_key is required")
	}
}

// Regenerate rebuilds a journaled catalogue workflow from its key and seed and
// holds it to digest, the Digest the journal recorded when the workflow was
// first generated. A mismatch means the generator no longer builds the
// workflow the journal's decisions were made on; the error names the key and
// the seed.
func Regenerate(key string, seed int64, digest string) (*dag.Workflow, error) {
	wf, seed, err := Resolve(nil, key, seed)
	if err != nil {
		return nil, err
	}
	if got := Digest(wf); got != digest {
		return nil, fmt.Errorf("workflow_key %q seed %d generates a workflow with digest %s, but the journal recorded %s: the generator changed since the journal was written",
			key, seed, got, digest)
	}
	return wf, nil
}

// Digest is the hex SHA-256 of wf's content in binary: the name, each stage's
// ID and name, and each task's ID, stage, name, dependencies and the bits of
// its execution time, transfer time, input size and output size — the fields
// a dagio document carries, hashed without formatting them as text. Strings
// and lists are length-prefixed, so no two workflows share an input.
func Digest(wf *dag.Workflow) string {
	h := sha256.New()
	var scratch [4096]byte
	b := scratch[:0]
	b = appendString(b, wf.Name)
	b = binary.AppendUvarint(b, uint64(len(wf.Stages)))
	for _, st := range wf.Stages {
		if len(b)+2*binary.MaxVarintLen64+len(st.Name) > len(scratch) {
			h.Write(b)
			b = b[:0]
		}
		b = binary.AppendVarint(b, int64(st.ID))
		b = appendString(b, st.Name)
	}
	b = binary.AppendUvarint(b, uint64(len(wf.Tasks)))
	for _, t := range wf.Tasks {
		// Flushed before a task that might not fit: one that cannot fit at
		// all grows b past scratch, which costs an allocation, not a digest.
		if len(b)+(4+len(t.Deps))*binary.MaxVarintLen64+len(t.Name)+32 > len(scratch) {
			h.Write(b)
			b = b[:0]
		}
		b = binary.AppendVarint(b, int64(t.ID))
		b = binary.AppendVarint(b, int64(t.Stage))
		b = appendString(b, t.Name)
		b = binary.AppendUvarint(b, uint64(len(t.Deps)))
		for _, d := range t.Deps {
			b = binary.AppendVarint(b, int64(d))
		}
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(t.ExecTime))
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(t.TransferTime))
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(t.InputSize))
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(t.OutputSize))
	}
	h.Write(b)
	var sum [sha256.Size]byte
	return hex.EncodeToString(h.Sum(sum[:0]))
}

// appendString appends s length-prefixed.
func appendString(b []byte, s string) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}
