package monitor

import "fmt"

// A monitor harvests the new per-task runtime data of each interval; between
// two intervals only a wavefront of task records changes. The delta form of a
// snapshot says so on the wire and in the journal: Delta is set and Tasks
// holds just the records that differ from the previous interval's. Records
// travel whole, never field by field, so folding a delta into its base twice
// equals folding it once; ids strictly increase, so a delta names each task
// at most once and one pass validates it. Everything outside Tasks — clock,
// billing parameters, Instances, RecentTransfers — is small and always
// carried in full: a reader that only meters billing reads a delta exactly as
// it reads a full snapshot.

// AppendChanged appends to dst every record of cur that differs from prev's
// record at the same index, in index order: the Tasks of cur's delta against
// prev. prev and cur must have the same length.
func AppendChanged(dst, prev, cur []TaskRecord) []TaskRecord {
	for i := range cur {
		if cur[i] != prev[i] {
			dst = append(dst, cur[i])
		}
	}
	return dst
}

// ApplyDelta folds d, a delta against s, into s: d's changed records replace
// s's, every other field is taken from d as is (d's Instances and
// RecentTransfers are shared, not copied), and s stays a full snapshot. A
// delta whose ids are not strictly increasing indices into s.Tasks is
// rejected with s untouched.
func (s *Snapshot) ApplyDelta(d *Snapshot) error {
	prev := -1
	for i := range d.Tasks {
		id := int(d.Tasks[i].ID)
		if id <= prev || id >= len(s.Tasks) {
			return fmt.Errorf("delta record %d has id %d; ids must strictly increase and stay below %d", i, id, len(s.Tasks))
		}
		prev = id
	}
	for i := range d.Tasks {
		s.Tasks[d.Tasks[i].ID] = d.Tasks[i]
	}
	s.Now, s.Interval = d.Now, d.Interval
	s.ChargingUnit, s.LagTime = d.ChargingUnit, d.LagTime
	s.SlotsPerInstance, s.MaxInstances = d.SlotsPerInstance, d.MaxInstances
	s.Instances, s.RecentTransfers = d.Instances, d.RecentTransfers
	return nil
}
