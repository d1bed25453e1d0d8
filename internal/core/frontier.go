package core

import (
	"cmp"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/bitset"
	"repro/internal/faults"
	"repro/internal/topo"
)

// The synchronous GS engine, shared by cold runs (Compute) and
// incremental repair (RepairLevels).
//
// In the paper's synchronous GS a node's level can change in round r
// only if a neighbor's level changed in round r-1. Each round therefore
// evaluates just its frontier — the unclamped siblings of the nodes the
// previous round changed — against the previous round's table, and
// applies the changes after the round's barrier. A node left out of a
// frontier would compute the level it already has: its equation held
// after the last round it was evaluated (or at the seed) and none of its
// inputs moved since. Frontier rounds are therefore bit-identical to
// sweeps over every node, round for round. The next frontier collects as
// marks on a dense bitset and drains in ascending node order. Every
// round runs on the caller's goroutine.
//
// A cold run prunes its frontiers further (touchCold). Its levels start
// at n and only fall, and a node with at most one neighbor below n still
// evaluates to n, so a node joins a frontier only from its second touch
// on. A repair's levels also rise, and it keeps the plain rule (touch).
//
// Clamped nodes never evaluate and stay at level 0: the faulty nodes,
// the N2 nodes (nonfaulty endpoints of faulty links), and during a
// repair's descent the released set U (see repair.go). The working
// state lives in a pooled scratch, so a run allocates little beyond
// what its Assignment retains. The scratch's node sets are
// bitset.Tracked, so a run clears and drains them in proportion to the
// words it touched. A repair writes its levels into a fork of its
// predecessor's table, and a cold run into a table that starts as one
// shared all-n page; either copies a page only on its first write
// (pages.go).

// levelUpdate is one deferred level change of a frontier round; changes
// are collected during the round and applied after its barrier.
type levelUpdate struct {
	node  int32
	level uint8
}

// scratch holds every reusable buffer of one engine run. Instances
// recycle through scratchPool; buffers are sized for one topology and
// reallocated only when a run arrives for a different node count.
type scratch struct {
	nodes int
	// n2 is the N2 set (nonfaulty endpoints of faulty links); n2 ∪
	// faulty is the clamp set outside a repair's descent.
	n2 bitset.Tracked
	// inU marks a repair's released set U while it is still clamped.
	inU bitset.Tracked
	// affected marks nodes named by a repair's delta journal; nodeTog
	// holds the per-node toggle parity of the journal entries.
	affected bitset.Tracked
	nodeTog  bitset.Tracked
	// mark accumulates the next round's frontier; DrainInto empties it
	// into dirty in ascending node order.
	mark bitset.Tracked
	// seen marks the nodes a cold run has touched once (touchCold).
	seen bitset.Tracked
	// owned[p] reports whether the table being written holds its own
	// copy of page p (levelTable.write).
	owned    []bool
	dirty    []int32
	released []int32
	dropped  []int32
	updates  []levelUpdate
	linkAll  []faults.Link
	sibs     []topo.NodeID
	neigh    []int
	lvlCnt   []int
	sw       *sweeper
}

// Scratches recycle through spare, which keeps the last one returned,
// and through scratchPool for runs that overlap it. A sync.Pool drops
// its per-P cache at every garbage collection and allocates a new one
// on its next use, so a process that makes one run after another, as
// the serving applier does, would pay that allocation after every
// collection; spare survives collections, so such runs reuse one
// scratch without it.
var (
	spare       atomic.Pointer[scratch]
	scratchPool = sync.Pool{New: func() interface{} { return &scratch{} }}
)

func getScratch(t topo.Topology) *scratch {
	sc := spare.Swap(nil)
	if sc == nil {
		sc = scratchPool.Get().(*scratch)
	}
	nodes := t.Nodes()
	if sc.nodes != nodes {
		sc.nodes = nodes
		sc.n2 = bitset.NewTracked(nodes)
		sc.inU = bitset.NewTracked(nodes)
		sc.affected = bitset.NewTracked(nodes)
		sc.nodeTog = bitset.NewTracked(nodes)
		sc.mark = bitset.NewTracked(nodes)
		sc.seen = bitset.NewTracked(nodes)
		sc.owned = make([]bool, pageCount(nodes))
		sc.sw = nil
	}
	return sc
}

func putScratch(sc *scratch) {
	sc.n2.Reset()
	sc.inU.Reset()
	sc.affected.Reset()
	sc.nodeTog.Reset()
	sc.mark.Reset()
	sc.seen.Reset()
	if !spare.CompareAndSwap(nil, sc) {
		scratchPool.Put(sc)
	}
}

// fillN2 adds set's N2 nodes — the nonfaulty endpoints of its faulty
// links (Section 4.1) — to sc.n2.
func (sc *scratch) fillN2(set *faults.Set) {
	for _, l := range set.FaultyLinks() {
		for _, e := range [2]topo.NodeID{l.A, l.B} {
			if !set.NodeFaulty(e) {
				sc.n2.Add(int(e))
			}
		}
	}
}

// fork returns a copy of t's directory for one run to write: it shares
// every page with t until the run's first write there
// (levelTable.write), so t itself never changes.
func (sc *scratch) fork(t levelTable) levelTable {
	clear(sc.owned)
	return slices.Clone(t)
}

// sweeperFor returns the evaluator for topology t, rebuilt when the
// pooled one belongs to another topology value.
func (sc *scratch) sweeperFor(t topo.Topology) *sweeper {
	if sc.sw == nil || sc.sw.t != t {
		sc.sw = newSweeper(t)
	}
	return sc.sw
}

// finalizeStable sorts the appended (node, round) stability entries by
// node and keeps each node's last-written round — the first round after
// which the node's level never changed again.
func finalizeStable(entries []stableEntry) []stableEntry {
	if len(entries) == 0 {
		return nil
	}
	slices.SortFunc(entries, func(a, b stableEntry) int {
		if c := cmp.Compare(a.node, b.node); c != 0 {
			return c
		}
		return cmp.Compare(a.round, b.round)
	})
	w := 0
	for i := range entries {
		if i+1 < len(entries) && entries[i+1].node == entries[i].node {
			continue
		}
		entries[w] = entries[i]
		w++
	}
	return entries[:w]
}

// frontier carries one engine run over the level table cur, whose
// pages the run owns as sc.owned records. n is the topology's dimension,
// the level whose nodes write marks safe. cold selects touchCold for
// the whole run.
type frontier struct {
	t    topo.Topology
	set  *faults.Set
	cur  levelTable
	n    uint8
	sc   *scratch
	cold bool
}

// clamped reports whether node a is held at level 0.
func (f *frontier) clamped(a int) bool {
	return f.set.NodeFaulty(topo.NodeID(a)) || f.sc.n2.Test(a) || f.sc.inU.Test(a)
}

// touch marks the unclamped siblings of node a, whose level changed, as
// members of the next round's frontier.
func (f *frontier) touch(a topo.NodeID) {
	sc := f.sc
	for i := 0; i < f.t.Dim(); i++ {
		sc.sibs = f.t.Siblings(a, i, sc.sibs[:0])
		for _, b := range sc.sibs {
			if !f.clamped(int(b)) {
				sc.mark.Add(int(b))
			}
		}
	}
}

// touchCold is touch for a cold run, which admits a sibling only from
// its second touch on; the first sets the sibling's seen mark. A node
// whose sorted neighbor levels are (x, n, ..., n) evaluates to n, the
// level it holds, and each sibling that falls from n touches the node
// as it falls, so no node that can change is left out. On a generalized
// cube a touch counts a sibling rather than a dimension, so the rule
// can only admit more nodes than it needs to.
func (f *frontier) touchCold(a topo.NodeID) {
	sc := f.sc
	for i := 0; i < f.t.Dim(); i++ {
		sc.sibs = f.t.Siblings(a, i, sc.sibs[:0])
		for _, b := range sc.sibs {
			switch {
			case !sc.seen.Test(int(b)):
				sc.seen.Add(int(b))
			case !f.clamped(int(b)):
				sc.mark.Add(int(b))
			}
		}
	}
}

// run executes synchronous rounds from the frontier marked in sc.mark,
// folding rounds, per-round deltas and stability entries into as. It
// stops when a round changes no level or after roundCap rounds, and
// returns the number of NODE_STATUS evaluations it made and whether it
// converged before the cap.
func (f *frontier) run(as *Assignment, roundCap int) (evals int, converged bool) {
	sc := f.sc
	touch := f.touch
	if f.cold {
		touch = f.touchCold
	}
	dirty := sc.mark.DrainInto(sc.dirty[:0])
	updates := sc.updates[:0]
	sw := sc.sweeperFor(f.t)
	for round := 0; len(dirty) > 0 && round < roundCap; round++ {
		// Evaluate the frontier against the previous round's table.
		updates = updates[:0]
		for _, a := range dirty {
			if v := uint8(sw.eval(f.cur, topo.NodeID(a))); v != f.cur.at(int(a)) {
				updates = append(updates, levelUpdate{a, v})
			}
		}
		evals += len(dirty)
		if len(updates) == 0 {
			dirty = dirty[:0]
			break
		}

		// Apply after the barrier; the changed nodes' siblings form the
		// next frontier.
		as.rounds++
		as.deltas = append(as.deltas, len(updates))
		as.stableSparse = slices.Grow(as.stableSparse, len(updates))
		for _, u := range updates {
			f.cur.write(sc.owned, int(u.node), u.level, f.n)
			as.stableSparse = append(as.stableSparse, stableEntry{node: u.node, round: int32(as.rounds)})
			touch(topo.NodeID(u.node))
		}
		dirty = sc.mark.DrainInto(dirty[:0])
	}
	sc.dirty, sc.updates = dirty, updates
	return evals, len(dirty) == 0
}

// finish publishes the settled table as the public view, finalizes the
// stability entries and runs EGS's final round: every N2 node evaluates
// NODE_STATUS once for itself against the settled public levels, with
// the far ends of its faulty links counted as faulty. The own view is a
// fork of the public table holding those writes; without N2 nodes it
// aliases the public table.
func (f *frontier) finish(as *Assignment) {
	as.public = f.cur
	as.own = f.cur
	as.stableSparse = finalizeStable(as.stableSparse)
	sc := f.sc
	if !sc.n2.Any() {
		return
	}
	own := sc.fork(as.public)
	n := f.t.Dim()
	if cap(sc.neigh) < n+1 {
		sc.neigh = make([]int, n+1)
		sc.lvlCnt = make([]int, n+1)
	}
	neigh, cnt := sc.neigh[:n], sc.lvlCnt[:n+1]
	sc.n2.ForEach(func(a int) {
		id := topo.NodeID(a)
		for i := 0; i < n; i++ {
			neigh[i], sc.sibs = reduceObserved(f.t, f.set, as.public, id, i, sc.sibs)
		}
		own.write(sc.owned, a, uint8(LevelFromNeighbors(neigh, cnt)), f.n)
		as.evals++
	})
	as.own = own
}
