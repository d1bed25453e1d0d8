package core

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/bitset"
	"repro/internal/faults"
	"repro/internal/topo"
)

// LevelFromSorted evaluates Definition 1 given the ascending-sorted
// sequence of a nonfaulty node's neighbor safety levels. It returns n if
// (S0..Sn-1) >= (0..n-1), otherwise the smallest k with S_k < k — which,
// because the sequence is sorted and the prefix dominates (0..k-1),
// necessarily has S_k = k-1 exactly as the paper states the condition.
func LevelFromSorted(sorted []int) int {
	for i, s := range sorted {
		if s < i {
			return i
		}
	}
	return len(sorted)
}

// LevelFromNeighbors evaluates Definition 1 from an unsorted neighbor
// level sequence. Because levels live in the bounded domain [0, n] (a
// level never exceeds the cube dimension), the sequence is reduced to a
// counting histogram instead of being sorted — O(n) with no comparison
// sort. scratch, if non-nil and of capacity at least len(levels)+1,
// avoids an allocation; callers in hot loops pass a reusable buffer.
func LevelFromNeighbors(levels []int, scratch []int) int {
	n := len(levels)
	if cap(scratch) < n+1 {
		scratch = make([]int, n+1)
	}
	cnt := scratch[:n+1]
	for i := range cnt {
		cnt[i] = 0
	}
	for _, v := range levels {
		if v < 0 {
			// A negative value sorts first, so index 0 already fails.
			return 0
		}
		if v > n {
			// Values beyond n behave exactly like n: every index they can
			// occupy is at most n-1 < n <= v, so the condition holds there
			// regardless of the exact value.
			v = n
		}
		cnt[v]++
	}
	return levelFromCounts(cnt)
}

// levelFromCounts evaluates Definition 1 over a level histogram:
// cnt[v] = number of neighbors at level v, len(cnt) = n+1. It walks the
// values ascending, tracking the sorted index i the next occurrence
// would occupy — the counting-sort twin of LevelFromSorted, verified
// equivalent by TestLevelFromCountsMatchesSorted.
func levelFromCounts(cnt []int) int {
	i := 0
	for v, c := range cnt {
		if c == 0 {
			continue
		}
		if v < i {
			// The first copy of v sits at sorted index i with v < i.
			return i
		}
		// The c copies of v occupy sorted indexes i..i+c-1, all >= v's
		// value... the first failing index is v+1 (value v at index v
		// still satisfies s >= i; at v+1 it does not).
		if v+1 <= i+c-1 {
			return v + 1
		}
		i += c
	}
	return i
}

// stableEntry records one node's final-change round in the sparse
// stability table (sorted by node after finalize).
type stableEntry struct {
	node  int32
	round int32
}

// Assignment holds the safety level of every node of one faulty cube.
//
// Without link faults every node has a single level. With link faults
// (computed by EGS) the paper distinguishes two views: the public level a
// node exposes to its neighbors — 0 for every node with an adjacent
// faulty link (the set N2) — and the node's own level, which an N2 node
// computes for itself by treating only the far ends of its faulty links
// as faulty. Public and Own coincide for every node outside N2.
//
// Tables are keyed by dense node index: levels are bounded by the cube
// dimension (<= topo.MaxDim), so one byte per node per table suffices.
// Each table is a directory of 4096-node pages (pages.go) that never
// change once the run that built them returns, so assignments share
// pages instead of copying tables: a repair copies only the pages it
// writes, and Detach copies none. At Q20 a table is 1 MiB in 256 pages.
type Assignment struct {
	t topo.Topology
	// set is the live fault set the assignment was computed against, or
	// nil on a detached copy, which routes on fz instead (Detach).
	set    *faults.Set
	fz     frozen
	public levelTable
	own    levelTable
	// rounds is the number of synchronous information-exchange rounds
	// after which no level changed (the statistic plotted in Fig. 2).
	rounds int
	// deltas[r-1] is the number of nodes whose level changed in round r;
	// len(deltas) == rounds. The observability layer exports it as the
	// per-round convergence profile of a GS run. It starts in deltaBuf,
	// which holds the few rounds of a typical run without an allocation.
	deltas   []int
	deltaBuf [8]int
	// stableSparse holds (node, final round) pairs for the nodes the
	// run changed, sorted by node: the first round after which the
	// node's level never changes again. Nodes absent stabilized at round
	// 0 (the initial value was already final). Used to validate
	// Property 1: a k-safe node stabilizes by round k.
	stableSparse []stableEntry
	// evals counts NODE_STATUS evaluations (see Evals): for a cold run
	// the synchronous algorithm's work, for a repair the frontier it
	// actually evaluated. Their ratio is the repair payoff quantified in
	// BENCH_3.json.
	evals int
	// repaired marks assignments produced by RepairLevels (seeded from a
	// previous fixpoint) rather than a cold sweep. For repaired
	// assignments Rounds/Deltas/StableRound describe the repair
	// iteration, not a from-scratch GS run.
	repaired bool
	// dirty is the total number of frontier slots a repair evaluated (0
	// for cold runs).
	dirty int
}

// Topology returns the topology the assignment is defined over.
func (as *Assignment) Topology() topo.Topology { return as.t }

// Cube returns the topology as a binary cube; it panics for assignments
// over a generalized hypercube. Binary-only consumers use this accessor.
func (as *Assignment) Cube() *topo.Cube {
	c, ok := as.t.(*topo.Cube)
	if !ok {
		panic("core: assignment is not over a binary cube")
	}
	return c
}

// frozen is the fault state of a detached assignment: the sorted link
// slice and the generation taken at detach time. Node faults need no
// copy, because the faulty nodes are exactly those whose own level is
// 0 (NodeFaulty). view is the full fault set, built on first use.
type frozen struct {
	links []faults.Link
	gen   uint64
	once  sync.Once
	view  *faults.Set
}

// Faults returns the fault set the assignment routes on. A live
// assignment returns the set it was computed against. A detached copy
// keeps no set: its first call builds one from the own-level table and
// the link slice, at the generation of the detach, with no journal, and
// later calls return the same set. The build is one pass over the
// table, paid only by callers of Faults; routing never needs it.
func (as *Assignment) Faults() *faults.Set {
	if as.set != nil {
		return as.set
	}
	as.fz.once.Do(func() {
		nodes := bitset.New(as.t.Nodes())
		for p, page := range as.own {
			for i, v := range page {
				if v == 0 {
					nodes.Add(p<<pageShift + i)
				}
			}
		}
		as.fz.view = faults.Frozen(as.t, as.fz.gen, nodes, as.fz.links)
	})
	return as.fz.view
}

// NodeFaulty reports whether node a is faulty in the fault state the
// assignment routes on. A live assignment asks its set, which may run
// ahead of the tables: a Session routes on an assignment while its set
// mutates mid-flight. A detached copy reads its own-level table. GS and
// EGS never give a nonfaulty node an own level of 0 (Verify checks
// it), so there the faulty nodes are exactly the nodes at 0.
func (as *Assignment) NodeFaulty(a topo.NodeID) bool {
	if as.set != nil {
		return as.set.NodeFaulty(a)
	}
	return as.own.at(int(a)) == 0
}

// faultyAt is NodeFaulty(a) for a node whose own level lv the caller
// has read: a detached copy answers from lv without reading it again.
func (as *Assignment) faultyAt(a topo.NodeID, lv int) bool {
	if as.set != nil {
		return as.set.NodeFaulty(a)
	}
	return lv == 0
}

// linkFaulty reports whether the link (a, b) is faulty: in the live
// set, or in the link slice a detached copy took.
func (as *Assignment) linkFaulty(a, b topo.NodeID) bool {
	if as.set != nil {
		return as.set.LinkFaulty(a, b)
	}
	return faults.HasLink(as.fz.links, a, b)
}

// Level returns the public safety level of node a: the value a's
// neighbors observe. Faulty nodes and nodes with adjacent faulty links
// report 0.
func (as *Assignment) Level(a topo.NodeID) int { return int(as.public.at(int(a))) }

// OwnLevel returns node a's own view of its safety level. It differs
// from Level(a) only for nonfaulty nodes with adjacent faulty links,
// which consider themselves regular healthy nodes (Section 4.1).
func (as *Assignment) OwnLevel(a topo.NodeID) int { return int(as.own.at(int(a))) }

// Rounds returns how many synchronous rounds GS/EGS needed before the
// levels stabilized. A fault-free cube needs 0 rounds.
func (as *Assignment) Rounds() int { return as.rounds }

// Deltas returns the per-round level-change counts: Deltas()[r-1] nodes
// changed level in round r. The slice has Rounds() entries.
func (as *Assignment) Deltas() []int { return append([]int(nil), as.deltas...) }

// StableRound returns the first round after which node a's level is
// final.
func (as *Assignment) StableRound(a topo.NodeID) int {
	i := sort.Search(len(as.stableSparse), func(i int) bool {
		return as.stableSparse[i].node >= int32(a)
	})
	if i < len(as.stableSparse) && as.stableSparse[i].node == int32(a) {
		return int(as.stableSparse[i].round)
	}
	return 0
}

// Evals returns the number of NODE_STATUS evaluations of the run. For a
// cold run it is the work of the paper's synchronous algorithm, where
// every live node outside N2 evaluates in every round until a round
// changes nothing or the round cap is reached, plus one own-level
// evaluation per N2 node in EGS's final round: live × min(Rounds+1,
// cap) + |N2|. A distributed execution pays that in messages; the
// simulator evaluates only the nodes whose inputs changed and no longer
// pays it. For a repaired assignment it is the evaluations the repair
// actually made (DirtyNodes, plus the N2 own-level round) — the
// quantity incremental repair minimizes.
func (as *Assignment) Evals() int { return as.evals }

// Repaired reports whether the assignment was produced by incremental
// repair (RepairLevels) rather than a cold GS/EGS run. Both converge to
// the same unique fixpoint; only the round/work statistics differ.
func (as *Assignment) Repaired() bool { return as.repaired }

// DirtyNodes returns the total frontier slots a repair evaluated (0 for
// cold runs, whose Evals count the synchronous algorithm's work).
func (as *Assignment) DirtyNodes() int { return as.dirty }

// TableBytes returns the logical size of the level tables: one byte per
// node for the public table, plus as much again when the own table is a
// table of its own (EGS with N2 nodes) rather than an alias of the
// public one. Tables share pages with the assignments they were forked
// from, so the bytes a repair or publish allocates are far fewer; this
// is the size of the state, not of its cost.
func (as *Assignment) TableBytes() int {
	b := as.t.Nodes()
	if &as.own[0] != &as.public[0] {
		b += as.t.Nodes()
	}
	return b
}

// Safe reports whether node a is safe, i.e. has the maximum level n.
func (as *Assignment) Safe(a topo.NodeID) bool { return as.public.safe(int(a)) }

// SafeSet returns all safe nodes in ascending order.
func (as *Assignment) SafeSet() []topo.NodeID {
	var out []topo.NodeID
	n := uint8(as.t.Dim())
	for a := 0; a < as.t.Nodes(); a++ {
		if as.public.at(a) == n {
			out = append(out, topo.NodeID(a))
		}
	}
	return out
}

// Levels returns a copy of the public level table indexed by node ID.
func (as *Assignment) Levels() []int {
	out := make([]int, 0, as.t.Nodes())
	for _, page := range as.public {
		for _, v := range page {
			out = append(out, int(v))
		}
	}
	return out
}

// Options tune the GS computation. The zero value reproduces the paper's
// algorithm exactly.
type Options struct {
	// MaxRounds caps the number of iterations (the paper's D). Zero
	// means the Corollary bound n-1, which is always sufficient. A
	// smaller cap deliberately truncates convergence; the ablation
	// experiments use it to show what an under-provisioned D costs.
	MaxRounds int
	// Deprecated: Workers is ignored; every round runs on the caller's
	// goroutine. The field remains only for the benchmark module under
	// bench/, which still sets it.
	Workers int
}

// Compute runs GS (EGS when the fault set contains link faults) and
// returns the stabilized assignment. The computation is the synchronous
// version of the paper's algorithm: every node updates simultaneously
// from its neighbors' previous-round levels, starting from the
// all-nonfaulty-nodes-are-n-safe initialization, for at most
// Options.MaxRounds rounds (the Corollary bound n-1 when zero).
//
// Faulty nodes and the N2 nodes of EGS (nonfaulty endpoints of faulty
// links, Section 4.1) are clamped at public level 0 throughout. Every
// other node starts at n and keeps it while at most one of its
// neighbors is below n. A clamped node touches its siblings at the
// start, and a node whose level changes touches them after its round;
// a round evaluates only the unclamped nodes touched at the start or in
// the previous round that have been touched at least twice in all
// (frontier.touchCold). The table starts as one all-n page shared by
// every slot, and a page is copied on its first write. In the final
// round each N2 node computes its own level once, treating the far end
// of each of its faulty links as faulty but using its other neighbors'
// public levels.
func Compute(set *faults.Set, opts Options) *Assignment {
	as, _ := compute(set, opts)
	return as
}

// compute is Compute, also returning the NODE_STATUS evaluations its
// frontier made. Evals reports the synchronous algorithm's work instead.
func compute(set *faults.Set, opts Options) (*Assignment, int) {
	t := set.Topology()
	sc := getScratch(t)
	defer putScratch(sc)
	sc.fillN2(set)
	// The clamped nodes, faulty then N2, seed the run. The table starts
	// as the shared all-n page with a copy of each page a seed lies on.
	seeds := sc.dirty[:0]
	set.ForEachFaultyNode(func(a topo.NodeID) { seeds = append(seeds, int32(a)) })
	sc.n2.ForEach(func(a int) { seeds = append(seeds, int32(a)) })
	clear(sc.owned)
	for _, a := range seeds {
		sc.owned[a>>pageShift] = true
	}
	n := uint8(t.Dim())
	f := &frontier{t: t, set: set, cur: uniformTable(t.Nodes(), n, sc.owned), n: n, sc: sc, cold: true}
	for _, a := range seeds {
		f.cur.write(sc.owned, int(a), 0, n)
		f.touchCold(topo.NodeID(a))
	}
	sc.dirty = seeds

	as := &Assignment{t: t, set: set}
	as.deltas = as.deltaBuf[:0]
	roundCap := maxRounds(t, opts)
	evals, _ := f.run(as, roundCap)
	// Evals reports the synchronous algorithm's work, not the frontier's.
	sweeps := as.rounds + 1
	if sweeps > roundCap {
		sweeps = roundCap
	}
	as.evals = (t.Nodes() - set.NodeFaults() - sc.n2.Count()) * sweeps
	f.finish(as)
	return as, evals
}

func maxRounds(t topo.Topology, opts Options) int {
	if opts.MaxRounds > 0 {
		return opts.MaxRounds
	}
	d := t.Dim() - 1
	if d < 1 {
		d = 1
	}
	return d
}

// sweeper holds the per-goroutine scratch state of NODE_STATUS
// evaluation. The binary cube keeps its bit-twiddling fast path (one XOR
// per neighbor); generalized topologies reduce each dimension to the
// minimum sibling level first (Definition 4). Neighbor levels are folded
// into a counting histogram over the bounded level domain [0, dim] — no
// sort, no per-eval allocation.
type sweeper struct {
	t    topo.Topology
	bin  *topo.Cube // non-nil: binary fast path
	cnt  []int
	sibs []topo.NodeID
}

func newSweeper(t topo.Topology) *sweeper {
	sw := &sweeper{t: t, cnt: make([]int, t.Dim()+1)}
	if c, ok := t.(*topo.Cube); ok {
		sw.bin = c
	}
	return sw
}

// eval runs one NODE_STATUS evaluation of node id against the level
// table cur: each dimension reduces to its minimum sibling level
// (Definition 4 — the identity reduction on a binary cube), the reduced
// levels accumulate into the bounded histogram, and Definition 1
// evaluates it via levelFromCounts. On a binary cube the neighbors
// across the low pageShift dimensions share the node's page, so they
// are read from it without a directory lookup.
func (sw *sweeper) eval(cur levelTable, id topo.NodeID) int {
	n := sw.t.Dim()
	cnt := sw.cnt
	for i := range cnt {
		cnt[i] = 0
	}
	if sw.bin != nil {
		a := int(id)
		page, off := cur[a>>pageShift], a&pageMask
		low := min(n, pageShift)
		for i := 0; i < low; i++ {
			cnt[page[off^1<<i]]++
		}
		for i := low; i < n; i++ {
			cnt[cur.at(a^1<<i)]++
		}
	} else {
		for i := 0; i < n; i++ {
			sw.sibs = sw.t.Siblings(id, i, sw.sibs[:0])
			m := cur.at(int(sw.sibs[0]))
			for _, b := range sw.sibs[1:] {
				if v := cur.at(int(b)); v < m {
					m = v
				}
			}
			cnt[m]++
		}
	}
	return levelFromCounts(cnt)
}

// reduceObserved returns the dimension-i level node id observes: the
// minimum public level among its dimension-i siblings, with the far end
// of a faulty link counted as 0 (Section 4.1). For a binary cube this is
// simply the (single) neighbor's level.
func reduceObserved(t topo.Topology, set *faults.Set, cur levelTable, id topo.NodeID, i int, sibs []topo.NodeID) (int, []topo.NodeID) {
	sibs = t.Siblings(id, i, sibs[:0])
	m := -1
	for _, b := range sibs {
		v := 0
		if !set.LinkFaulty(id, b) {
			v = int(cur.at(int(b)))
		}
		if m < 0 || v < m {
			m = v
		}
	}
	return m, sibs
}

// Verify checks that the assignment satisfies the paper's fixpoint
// condition at every node: faulty nodes are 0-safe, nonfaulty nodes
// have an own level of at least 1 (the invariant a detached copy reads
// its node faults from), and every nonfaulty node's level equals
// Definition 1 (Definition 4 for generalized cubes) applied to its
// neighbors' levels. For EGS assignments the public view is checked
// over N1 and the own view over N2. On every node, each table's safe
// bit must read its level == n: the source step decides a safe source
// from the own table's bit alone. It returns nil when the assignment
// is consistent; Theorem 1 guarantees the consistent assignment is
// unique.
func (as *Assignment) Verify() error {
	t := as.t
	n := t.Dim()
	set := as.Faults()
	neigh := make([]int, n)
	scratch := make([]int, n+1)
	var sibs []topo.NodeID
	for a := 0; a < t.Nodes(); a++ {
		id := topo.NodeID(a)
		pub, own := as.Level(id), as.OwnLevel(id)
		faulty := set.NodeFaulty(id)
		switch {
		case faulty && (pub != 0 || own != 0):
			return fmt.Errorf("core: faulty node %s has nonzero level", t.Format(id))
		case !faulty && own < 1:
			return fmt.Errorf("core: nonfaulty node %s has own level 0", t.Format(id))
		case as.own.safe(a) != (own == n) || as.public.safe(a) != (pub == n):
			return fmt.Errorf("core: node %s has own level %d and public level %d, safe bits %v and %v",
				t.Format(id), own, pub, as.own.safe(a), as.public.safe(a))
		case faulty:
			continue
		}
		inN2 := len(set.AdjacentFaultyLinks(id)) > 0
		if inN2 {
			if pub != 0 {
				return fmt.Errorf("core: N2 node %s exposes nonzero public level %d", t.Format(id), pub)
			}
			for i := 0; i < n; i++ {
				neigh[i], sibs = reduceObserved(t, set, as.public, id, i, sibs)
			}
			if want := LevelFromNeighbors(neigh, scratch); own != want {
				return fmt.Errorf("core: N2 node %s own level %d, Definition 1 gives %d", t.Format(id), own, want)
			}
			continue
		}
		for i := 0; i < n; i++ {
			sibs = t.Siblings(id, i, sibs[:0])
			m := as.Level(sibs[0])
			for _, b := range sibs[1:] {
				m = min(m, as.Level(b))
			}
			neigh[i] = m
		}
		if want := LevelFromNeighbors(neigh, scratch); pub != want {
			return fmt.Errorf("core: node %s level %d, Definition 1 gives %d", t.Format(id), pub, want)
		}
	}
	return nil
}

// UnsafeNonfaulty returns the nonfaulty nodes whose level is below n.
func (as *Assignment) UnsafeNonfaulty() []topo.NodeID {
	var out []topo.NodeID
	n := uint8(as.t.Dim())
	for a := 0; a < as.t.Nodes(); a++ {
		id := topo.NodeID(a)
		if !as.NodeFaulty(id) && as.public.at(a) < n {
			out = append(out, id)
		}
	}
	return out
}

// CheckProperty2 validates Property 2: in a faulty n-cube with fewer
// than n faulty nodes (and no link faults), every nonfaulty but unsafe
// node has a safe neighbor. It returns an error naming the first
// violating node; callers should only invoke it when the precondition
// (NodeFaults < n, LinkFaults == 0) holds.
func (as *Assignment) CheckProperty2() error {
	t := as.t
	n := t.Dim()
	var sibs []topo.NodeID
	for _, a := range as.UnsafeNonfaulty() {
		hasSafe := false
		for i := 0; i < n && !hasSafe; i++ {
			sibs = t.Siblings(a, i, sibs[:0])
			for _, b := range sibs {
				if as.Level(b) == n {
					hasSafe = true
					break
				}
			}
		}
		if !hasSafe {
			return fmt.Errorf("core: unsafe node %s has no safe neighbor (faults=%d)",
				t.Format(a), as.Faults().NodeFaults())
		}
	}
	return nil
}
