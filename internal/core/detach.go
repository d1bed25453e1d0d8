package core

// Detach returns a copy of the assignment bound to an independent,
// journal-free clone of its fault set (faults.Set.CloneState).
//
// An Assignment from Compute or RepairLevels shares its fault set with
// the caller: routing through it consults the live set for node/link
// status, so a later mutation — FailNode, RecoverNode, FailLink — races
// with concurrent readers (the set's node bitset and link slice are
// unsynchronized; RecoverNode is even a multi-delta composite). Detach
// severs that tie. The copy routes against the fault state frozen at
// the moment of the call and never changes again, which makes it safe
// to publish behind an atomic pointer and read without locks.
//
// The level tables are shared, not copied: their pages never change
// once the run that wrote them returned, and a later repair copies a
// page before its first write (pages.go). Detach therefore costs the
// fault-state clone (the node bitset and sorted link slice) plus the
// small statistics slices, not the 2^n bytes of a table.
//
// The detached copy cannot seed RepairLevels (repair requires set
// identity with the live oracle); keep the original as the repair seed
// and publish only detached copies — the internal/serve applier does
// exactly this on every snapshot swap.
func (as *Assignment) Detach() *Assignment {
	cp := &Assignment{
		t:            as.t,
		set:          as.set.CloneState(),
		public:       as.public,
		own:          as.own,
		rounds:       as.rounds,
		stableSparse: append([]stableEntry(nil), as.stableSparse...),
		evals:        as.evals,
		repaired:     as.repaired,
		dirty:        as.dirty,
	}
	cp.deltas = append(cp.deltaBuf[:0], as.deltas...)
	return cp
}
