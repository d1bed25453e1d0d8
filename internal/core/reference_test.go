package core

import (
	"fmt"
	"sort"
	"testing"

	"repro/internal/faults"
	"repro/internal/stats"
	"repro/internal/topo"
)

// This file pins the flat SoA core (dense []uint8 tables, bitset fault
// sets, counting-sort NODE_STATUS, pooled repair scratch) to a
// deliberately naive map-based reference implementation of GS/EGS. The
// reference shares no code with the production path: it keeps levels in
// map[NodeID]int, sorts neighbor levels with sort.Ints, evaluates
// Definition 1 positionally, and sweeps every live node in every round.
// Exhaustive small-cube sweeps and randomized Q8/Q10 and mixed-radix
// scenarios must agree bit for bit on both the public and own tables,
// cold and after incremental repairs. Cold runs must also agree on the
// run statistics of the synchronous algorithm: rounds, per-round
// deltas, each node's last-change round, and the evaluation count.

// refLevel is Definition 1 evaluated positionally: sort the observed
// neighbor levels ascending and return the first index j whose level
// sits below j, or the neighbor count when none does.
func refLevel(neigh []int) int {
	s := append([]int(nil), neigh...)
	sort.Ints(s)
	for j, v := range s {
		if v < j {
			return j
		}
	}
	return len(s)
}

// refRun is the outcome of one synchronous GS/EGS run of the reference.
type refRun struct {
	public, own map[topo.NodeID]int
	// rounds counts the rounds in which some level changed; deltas[r-1]
	// is the number of nodes that changed in round r.
	rounds int
	deltas []int
	// lastChange maps each node that ever changed to the last round in
	// which it did.
	lastChange map[topo.NodeID]int
	// evals counts NODE_STATUS evaluations of the synchronous
	// algorithm: every live node in every round run, plus one per N2
	// node in EGS's final round.
	evals int
}

// refCompute runs synchronous GS/EGS rounds over map tables until a
// round changes nothing or maxRounds rounds have run. maxRounds <= 0
// means the Corollary bound n-1 (at least one round).
func refCompute(set *faults.Set, maxRounds int) refRun {
	t := set.Topology()
	n := t.Dim()
	if maxRounds <= 0 {
		maxRounds = n - 1
		if maxRounds < 1 {
			maxRounds = 1
		}
	}

	// N2: nonfaulty endpoints of faulty links, frozen at public 0.
	frozen := map[topo.NodeID]bool{}
	for _, l := range set.FaultyLinks() {
		for _, e := range []topo.NodeID{l.A, l.B} {
			if !set.NodeFaulty(e) {
				frozen[e] = true
			}
		}
	}

	cur := map[topo.NodeID]int{}
	for a := 0; a < t.Nodes(); a++ {
		id := topo.NodeID(a)
		switch {
		case set.NodeFaulty(id):
			cur[id] = 0
		case frozen[id]:
			cur[id] = 0
		default:
			cur[id] = n
		}
	}

	// Per-dimension reduction: minimum sibling level (identity on the
	// binary cube per Definition 4).
	dimMin := func(tbl map[topo.NodeID]int, id topo.NodeID, i int) int {
		m := -1
		for _, b := range t.Siblings(id, i, nil) {
			if m < 0 || tbl[b] < m {
				m = tbl[b]
			}
		}
		return m
	}

	run := refRun{lastChange: map[topo.NodeID]int{}}
	for r := 1; r <= maxRounds; r++ {
		next := map[topo.NodeID]int{}
		changed := 0
		for a := 0; a < t.Nodes(); a++ {
			id := topo.NodeID(a)
			if set.NodeFaulty(id) || frozen[id] {
				next[id] = cur[id]
				continue
			}
			neigh := make([]int, n)
			for i := 0; i < n; i++ {
				neigh[i] = dimMin(cur, id, i)
			}
			next[id] = refLevel(neigh)
			run.evals++
			if next[id] != cur[id] {
				changed++
				run.lastChange[id] = r
			}
		}
		cur = next
		if changed == 0 {
			break
		}
		run.rounds = r
		run.deltas = append(run.deltas, changed)
	}

	run.public, run.own = cur, cur
	if len(frozen) == 0 {
		return run
	}
	// Final round: each N2 node evaluates once for itself, treating the
	// far end of each faulty link as faulty.
	run.own = map[topo.NodeID]int{}
	for id, v := range run.public {
		run.own[id] = v
	}
	for id := range frozen {
		neigh := make([]int, n)
		for i := 0; i < n; i++ {
			m := -1
			for _, b := range t.Siblings(id, i, nil) {
				v := 0
				if !set.LinkFaulty(id, b) {
					v = run.public[b]
				}
				if m < 0 || v < m {
					m = v
				}
			}
			neigh[i] = m
		}
		run.own[id] = refLevel(neigh)
		run.evals++
	}
	return run
}

// assertMatchesReference compares the flat assignment against the map
// reference's fixpoint at every node.
func assertMatchesReference(t *testing.T, name string, as *Assignment, set *faults.Set) {
	t.Helper()
	assertLevelsMatch(t, name, as, refCompute(set, 0))
}

func assertLevelsMatch(t *testing.T, name string, as *Assignment, ref refRun) {
	t.Helper()
	tp := as.Topology()
	for a := 0; a < tp.Nodes(); a++ {
		id := topo.NodeID(a)
		if got, want := as.Level(id), ref.public[id]; got != want {
			t.Fatalf("%s: public level of node %d = %d, reference %d", name, a, got, want)
		}
		if got, want := as.OwnLevel(id), ref.own[id]; got != want {
			t.Fatalf("%s: own level of node %d = %d, reference %d", name, a, got, want)
		}
	}
}

// assertColdMatchesReference runs Compute(set, opts) and checks its
// levels and every run statistic against the reference under the same
// round cap.
func assertColdMatchesReference(t *testing.T, name string, set *faults.Set, opts Options) {
	t.Helper()
	as := Compute(set, opts)
	ref := refCompute(set, opts.MaxRounds)
	assertLevelsMatch(t, name, as, ref)
	if as.Rounds() != ref.rounds {
		t.Fatalf("%s: rounds %d, reference %d", name, as.Rounds(), ref.rounds)
	}
	if got := as.Deltas(); fmt.Sprint(got) != fmt.Sprint(ref.deltas) {
		t.Fatalf("%s: deltas %v, reference %v", name, got, ref.deltas)
	}
	for a := 0; a < set.Topology().Nodes(); a++ {
		id := topo.NodeID(a)
		if got, want := as.StableRound(id), ref.lastChange[id]; got != want {
			t.Fatalf("%s: node %d stable round %d, reference %d", name, a, got, want)
		}
	}
	if as.Evals() != ref.evals {
		t.Fatalf("%s: evals %d, reference %d", name, as.Evals(), ref.evals)
	}
	if as.Repaired() || as.DirtyNodes() != 0 {
		t.Fatalf("%s: cold run reports repaired=%v dirty=%d", name, as.Repaired(), as.DirtyNodes())
	}
}

// roundCaps are the MaxRounds values every cold scenario runs under:
// the Corollary default and two truncations (the paper's D).
var roundCaps = []int{0, 1, 2}

// TestFlatMatchesReferenceExhaustiveQ3 sweeps every node-fault subset of
// size <= 2 crossed with every single link fault on Q3: 481 scenarios
// covering GS, EGS, frozen N2 corners, and faulty link endpoints, each
// under every round cap.
func TestFlatMatchesReferenceExhaustiveQ3(t *testing.T) {
	tp := topo.MustCube(3)
	var nodeSets [][]topo.NodeID
	nodeSets = append(nodeSets, nil)
	for a := 0; a < tp.Nodes(); a++ {
		nodeSets = append(nodeSets, []topo.NodeID{topo.NodeID(a)})
		for b := a + 1; b < tp.Nodes(); b++ {
			nodeSets = append(nodeSets, []topo.NodeID{topo.NodeID(a), topo.NodeID(b)})
		}
	}
	linkSets := [][2]topo.NodeID{{0, 0}} // sentinel: no link fault
	for a := 0; a < tp.Nodes(); a++ {
		for i := 0; i < tp.Dim(); i++ {
			b := tp.Neighbor(topo.NodeID(a), i)
			if topo.NodeID(a) < b {
				linkSets = append(linkSets, [2]topo.NodeID{topo.NodeID(a), b})
			}
		}
	}
	for ni, nodes := range nodeSets {
		for li, link := range linkSets {
			set := faults.NewSet(tp)
			for _, a := range nodes {
				if err := set.FailNode(a); err != nil {
					t.Fatal(err)
				}
			}
			if link[0] != link[1] {
				// Skip links whose endpoints are already node-faulty: the
				// fault set rejects redundant link faults on dead nodes.
				if set.NodeFaulty(link[0]) || set.NodeFaulty(link[1]) {
					continue
				}
				if err := set.FailLink(link[0], link[1]); err != nil {
					t.Fatal(err)
				}
			}
			for _, d := range roundCaps {
				name := fmt.Sprintf("nodes=%d link=%d D=%d", ni, li, d)
				assertColdMatchesReference(t, name, set, Options{MaxRounds: d})
			}
		}
	}
}

// TestFlatMatchesReferenceExhaustiveQ4 sweeps every single and double
// node-fault subset of Q4 under every round cap.
func TestFlatMatchesReferenceExhaustiveQ4(t *testing.T) {
	tp := topo.MustCube(4)
	for a := 0; a < tp.Nodes(); a++ {
		for b := a; b < tp.Nodes(); b++ {
			set := faults.NewSet(tp)
			if err := set.FailNode(topo.NodeID(a)); err != nil {
				t.Fatal(err)
			}
			if b != a {
				if err := set.FailNode(topo.NodeID(b)); err != nil {
					t.Fatal(err)
				}
			}
			for _, d := range roundCaps {
				name := fmt.Sprintf("faults={%d,%d} D=%d", a, b, d)
				assertColdMatchesReference(t, name, set, Options{MaxRounds: d})
			}
		}
	}
}

// TestFlatMatchesReferenceRandomized drives randomized mixed-fault
// scenarios on Q5, Q8 and Q10 and on mixed-radix shapes through the flat
// core under every round cap, against the map reference.
func TestFlatMatchesReferenceRandomized(t *testing.T) {
	cases := []struct {
		tp           topo.Topology
		trials       int
		nodes, links int
	}{
		{topo.MustCube(5), 40, 6, 3},
		{topo.MustCube(8), 8, 20, 6},
		{topo.MustCube(10), 3, 40, 10},
		{topo.MustMixed(3, 3, 3), 10, 5, 3},
		{topo.MustMixed(3, 2, 4), 10, 4, 3},
		{topo.MustMixed(2, 3, 2), 10, 2, 2},
		{topo.MustMixed(4, 4, 2), 10, 6, 4},
	}
	for ci, c := range cases {
		for trial := 0; trial < c.trials; trial++ {
			set := faults.NewSet(c.tp)
			rng := stats.NewRNG(uint64(1000*ci + trial))
			if err := faults.InjectUniform(set, rng, c.nodes); err != nil {
				t.Fatal(err)
			}
			if err := faults.InjectUniformLinks(set, rng, c.links); err != nil {
				t.Fatal(err)
			}
			for _, d := range roundCaps {
				name := fmt.Sprintf("case%d/trial%d D=%d", ci, trial, d)
				assertColdMatchesReference(t, name, set, Options{MaxRounds: d})
			}
		}
	}
}

// TestRepairMatchesReferenceUnderChurn replays a mixed node/link churn
// schedule on Q8, repairing incrementally after every event, and checks
// the repaired flat tables against a fresh map-reference fixpoint each
// time — so repair correctness is pinned to Definition 1 itself, not
// just to the flat cold path.
func TestRepairMatchesReferenceUnderChurn(t *testing.T) {
	tp := topo.MustCube(8)
	events := faults.ChurnSchedule(tp, 424242, 50, faults.ChurnOptions{Links: true})
	set := faults.NewSet(tp)
	as := Compute(set, Options{})
	gen := set.Generation()
	for i, ev := range events {
		if err := set.Apply(ev); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		delta, ok := set.Since(gen)
		if !ok {
			t.Fatalf("step %d: journal gap", i)
		}
		rep, ok := RepairLevels(as, set, delta, Options{})
		if !ok {
			as = Compute(set, Options{})
		} else {
			as = rep
		}
		gen = set.Generation()
		assertMatchesReference(t, fmt.Sprintf("step %d (%v)", i, ev), as, set)
	}
}
