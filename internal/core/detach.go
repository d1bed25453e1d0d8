package core

// Detach returns a copy of the assignment that no longer reads the live
// fault set.
//
// An Assignment from Compute or RepairLevels shares its fault set with
// the caller: routing through it consults the live set for node/link
// status, so a later mutation — FailNode, RecoverNode, FailLink — races
// with concurrent readers (the set's node bitset and link slice are
// unsynchronized; RecoverNode is even a multi-delta composite). Detach
// severs that tie. The copy routes against the fault state at the
// moment of the call and never changes again, which makes it safe to
// publish behind an atomic pointer and read without locks.
//
// The copy takes only the sorted link slice and the generation. The
// level tables are shared, not copied: their pages never change once
// the run that wrote them returned, and a later repair copies a page
// before its first write (pages.go). The node bitset is not copied
// either: the copy answers NodeFaulty from its own-level table, where
// exactly the faulty nodes read 0, and builds a full fault set only if
// Faults is called. A detach therefore costs a few small allocations
// however large the cube, not the 2^n bits of a bitset.
//
// The detached copy cannot seed RepairLevels (repair requires set
// identity with the live oracle); keep the original as the repair seed
// and publish only detached copies — the internal/serve applier does
// exactly this on every snapshot swap.
func (as *Assignment) Detach() *Assignment {
	cp := &Assignment{
		t:            as.t,
		fz:           frozen{links: as.fz.links, gen: as.fz.gen},
		public:       as.public,
		own:          as.own,
		rounds:       as.rounds,
		stableSparse: as.stableSparse,
		evals:        as.evals,
		repaired:     as.repaired,
		dirty:        as.dirty,
	}
	if as.set != nil {
		cp.fz.links, cp.fz.gen = as.set.FaultyLinks(), as.set.Generation()
	}
	cp.deltas = append(cp.deltaBuf[:0], as.deltas...)
	return cp
}
