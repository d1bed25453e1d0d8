package core

// Detach returns a deep copy of the assignment bound to an independent,
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
// With the flat SoA layout the copy is a handful of memcpys — the
// []uint8 level tables, the fault bitset and sorted link slice, the
// sparse stability entries — so copy-on-publish cost is linear in
// bytes, not in entries of a rebuilt map (~1 MiB per table at Q20).
//
// The detached copy cannot seed RepairLevels (repair requires set
// identity with the live oracle); keep the original as the repair seed
// and publish only detached copies — the internal/serve applier does
// exactly this on every snapshot swap.
func (as *Assignment) Detach() *Assignment {
	cp := &Assignment{
		t:            as.t,
		set:          as.set.CloneState(),
		public:       append([]uint8(nil), as.public...),
		rounds:       as.rounds,
		deltas:       append([]int(nil), as.deltas...),
		stableSparse: append([]stableEntry(nil), as.stableSparse...),
		evals:        as.evals,
		repaired:     as.repaired,
		dirty:        as.dirty,
	}
	// public and own alias each other whenever there are no N2 nodes;
	// preserve the aliasing so the copy costs one slice, not two.
	if len(as.own) > 0 && &as.own[0] == &as.public[0] {
		cp.own = cp.public
	} else {
		cp.own = append([]uint8(nil), as.own...)
	}
	return cp
}
