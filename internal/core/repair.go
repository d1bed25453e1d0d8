package core

import (
	"cmp"
	"slices"

	"repro/internal/faults"
	"repro/internal/topo"
)

// Incremental GS repair. A fault delta perturbs the safety-level
// fixpoint only inside a bounded neighborhood (Theorem 1's monotone
// structure), so re-running GLOBAL_STATUS over all 2^n nodes after every
// FailNode/RecoverNode is wasted work. RepairLevels seeds the iteration
// from the previous fixpoint and sweeps only a dirty frontier.
//
// Correctness rests on two monotone phases. Write C(S) for the set of
// nodes clamped to public level 0 under fault set S: the faulty nodes
// plus the paper's N2 (nonfaulty nodes with an adjacent faulty link,
// Section 4.1). Every node outside C(S) satisfies the pure Definition
// 1/4 equation on its neighbors' public levels — faulty links never
// appear in an unclamped node's evaluation, because any node touching
// one is itself clamped. The public fixpoint is therefore the unique
// consistent assignment of the "clamp C, evaluate the rest" operator
// F_S (Theorem 1's uniqueness argument applies to any clamp set).
//
// Let old be the previous fixpoint for S_old, and S_new the mutated
// set. Put D = C(S_new) \ C(S_old) (newly clamped) and U = C(S_old) \
// C(S_new) (released). The repair runs:
//
//	Phase 1 (descent): clamp C(S_new) ∪ U = C(S_old) ∪ D and seed every
//	unclamped node with its old level, newly clamped nodes with 0. The
//	seed T satisfies F(T) <= T: each unclamped node's equation held at
//	the old fixpoint and its inputs only moved down (D nodes dropped to
//	0, U nodes were already 0). Synchronous iteration therefore
//	descends pointwise and, by uniqueness, lands exactly on the
//	fixpoint for the union clamp set.
//
//	Phase 2 (ascent): release U. The phase-1 result T' satisfies F(T')
//	>= T' under the C(S_new) clamp — released nodes sit at 0 and can
//	only rise; everyone else's equation still holds because released
//	nodes contributed 0 either way. Iteration ascends pointwise to the
//	unique fixpoint for S_new.
//
// Both phases run on the synchronous frontier engine of a cold run
// (frontier.go), so each recomputes a node only when one of its inputs
// changed in the previous round. Each phase moves every node
// monotonically through at most n+1 values, so termination is
// unconditional. The result is therefore bit-for-bit the assignment a
// cold Compute would produce — the property the differential, fuzz and
// chaos suites enforce at every churn step.

// RepairLevels patches the previous stable assignment prev to the
// current state of set, given the journal deltas (faults.Set.Since)
// that separate them. It returns (assignment, true) on success; the
// assignment is bit-identical — public and own tables both — to what a
// cold Compute(set, opts) would produce, but typically evaluates far
// fewer nodes (Assignment.Evals).
//
// It returns (nil, false), and the caller must recompute cold, when the
// inputs do not support repair: prev is nil or from another
// topology/set, opts requests truncated convergence (MaxRounds > 0
// means prev may not be a fixpoint and the caller wants truncation
// semantics repair cannot honor), or the delta journal contains an
// entry the topology cannot explain.
func RepairLevels(prev *Assignment, set *faults.Set, delta []faults.Delta, opts Options) (*Assignment, bool) {
	if prev == nil || prev.set != set || prev.t != set.Topology() {
		return nil, false
	}
	if opts.MaxRounds > 0 {
		return nil, false
	}
	t := set.Topology()

	// Fast path: a fault-free cube has the known fixpoint "everyone is
	// n-safe" with zero rounds, exactly what a cold run reports. One
	// all-n page serves the whole directory.
	if set.NodeFaults() == 0 && set.LinkFaults() == 0 {
		cur := uniformTable(t.Nodes(), uint8(t.Dim()), nil)
		return &Assignment{
			t: t, set: set,
			public: cur, own: cur,
			repaired: true,
		}, true
	}

	sc := getScratch(t)
	defer putScratch(sc)
	f := newRepairState(prev, set, delta, sc)
	if f == nil {
		return nil, false
	}
	as := &Assignment{
		t: t, set: set,
		repaired: true,
	}
	as.deltas = as.deltaBuf[:0]

	// Phase 1 descends under the union clamp set; phase 2 releases U
	// and ascends.
	roundCap := repairRoundCap(t)
	for phase := 1; phase <= 2; phase++ {
		if phase == 2 {
			f.release()
		}
		evals, converged := f.run(as, roundCap)
		if !converged {
			return nil, false
		}
		as.dirty += evals
		as.evals += evals
	}
	// Own levels: the EGS final round against the settled public levels.
	f.finish(as)
	return as, true
}

// newRepairState classifies the delta into seed values, the released
// set U and the phase-1 frontier, which it leaves marked in sc.mark. The
// run's table is a fork of prev's public table: it shares every page
// until its first write there. It returns nil when the delta journal is
// malformed (unknown kind or nodes outside the topology — impossible
// through the Set mutators, but the journal crosses a package boundary).
func newRepairState(prev *Assignment, set *faults.Set, delta []faults.Delta, sc *scratch) *frontier {
	t := set.Topology()
	f := &frontier{
		t:   t,
		set: set,
		cur: sc.fork(prev.public),
		n:   uint8(t.Dim()),
		sc:  sc,
	}
	sc.fillN2(set)

	// Toggle parities per touched node and link reconstruct the old
	// status of exactly the affected elements without cloning the whole
	// set: every journal entry flips its element's state, so
	// old = current XOR (odd number of touches).
	linkAll := sc.linkAll[:0]
	for _, d := range delta {
		switch d.Kind {
		case faults.DeltaFailNode, faults.DeltaRecoverNode:
			if !t.Contains(d.A) {
				return nil
			}
			sc.nodeTog.Flip(int(d.A))
			sc.affected.Add(int(d.A))
		case faults.DeltaFailLink, faults.DeltaRecoverLink:
			if !t.Contains(d.A) || !t.Contains(d.B) {
				return nil
			}
			linkAll = append(linkAll, faults.Link{A: d.A, B: d.B}.Normalize())
			sc.affected.Add(int(d.A))
			sc.affected.Add(int(d.B))
		default:
			return nil
		}
	}
	// Reduce the touched-link list to the odd-parity (state-flipping)
	// links, sorted for binary search.
	slices.SortFunc(linkAll, compareLinks)
	w := 0
	for i := 0; i < len(linkAll); {
		j := i
		for j < len(linkAll) && linkAll[j] == linkAll[i] {
			j++
		}
		if (j-i)%2 == 1 {
			linkAll[w] = linkAll[i]
			w++
		}
		i = j
	}
	sc.linkAll = linkAll
	linkOdd := linkAll[:w]
	oldLinkFaulty := func(a, b topo.NodeID) bool {
		was := set.LinkFaulty(a, b)
		if _, flipped := slices.BinarySearchFunc(linkOdd, faults.Link{A: a, B: b}.Normalize(), compareLinks); flipped {
			was = !was
		}
		return was
	}
	oldClamped := func(a int) bool {
		id := topo.NodeID(a)
		wasFaulty := set.NodeFaulty(id)
		if sc.nodeTog.Test(a) {
			wasFaulty = !wasFaulty
		}
		if wasFaulty {
			return true
		}
		for i := 0; i < t.Dim(); i++ {
			sc.sibs = t.Siblings(id, i, sc.sibs[:0])
			for _, b := range sc.sibs {
				if oldLinkFaulty(id, b) {
					return true
				}
			}
		}
		return false
	}

	// Classify affected nodes into D (newly clamped) and U (released)
	// and seed D with 0. The bitsets iterate in ascending node order,
	// for determinism.
	sc.released, sc.dropped = sc.released[:0], sc.dropped[:0]
	sc.affected.ForEach(func(a int) {
		newC := set.NodeFaulty(topo.NodeID(a)) || sc.n2.Test(a)
		oldC := oldClamped(a)
		switch {
		case newC && !oldC: // D: newly clamped
			if f.cur.at(a) != 0 {
				f.cur.write(sc.owned, a, 0, f.n)
				sc.dropped = append(sc.dropped, int32(a))
			}
		case oldC && !newC: // U: released (rises in phase 2)
			sc.inU.Add(a)
			sc.released = append(sc.released, int32(a))
		}
	})
	// Each drop is visible to every neighbor outside the union clamp
	// set, now that U is complete.
	for _, a := range sc.dropped {
		f.touch(topo.NodeID(a))
	}
	return f
}

// compareLinks orders normalized links by (A, B).
func compareLinks(x, y faults.Link) int {
	if c := cmp.Compare(x.A, y.A); c != 0 {
		return c
	}
	return cmp.Compare(x.B, y.B)
}

// release ends phase 1: U is unclamped and becomes phase 2's frontier
// (the released nodes' own equations are the only ones the phase-1
// fixpoint may violate).
func (f *frontier) release() {
	for _, a := range f.sc.released {
		f.sc.inU.Remove(int(a))
		f.sc.mark.Add(int(a))
	}
}

// repairRoundCap bounds repair rounds defensively. Every counted round
// changes at least one node and each node moves monotonically through
// at most Dim+1 values per phase, so Nodes*(Dim+1)+2 cannot be reached;
// hitting it means the monotonicity invariant was violated and the
// caller must recompute cold.
func repairRoundCap(t topo.Topology) int { return t.Nodes()*(t.Dim()+1) + 2 }
