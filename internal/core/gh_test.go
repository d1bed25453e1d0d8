package core

// Section 4.2 on the generic core: generalized hypercubes
// GH(m_{n-1} x ... x m_0) as topo.Mixed, with the same Compute and
// Router that serve binary cubes. Every test name carries "GH", so
// `go test -run GH ./...` runs the generalized suite alone.

import (
	"testing"

	"repro/internal/faults"
	"repro/internal/stats"
	"repro/internal/topo"
)

// fig5GH builds the Section 4.2 scenario: GH(2x3x2) with four faulty
// nodes. The paper's figure does not list the fault set in the text;
// this one reproduces its stated facts: 011 (source 010's dimension-0
// neighbor) and 100 (000's dimension-2 neighbor) are faulty, S(110) = 1,
// exactly four nodes are safe (level 3) — including the example source
// 010, consistent with "routing from any of these four nodes [is]
// optimal" — and the worked route 010 -> 000 -> 001 -> 101 comes out
// hop for hop. (The paper's parenthetical that node 001 has safety
// level 1 is internally inconsistent with Definition 4: with 000 and
// 101 nonfaulty, at most one of 001's per-dimension minima can be 0, so
// S(001) >= 2 for every possible fault set. Likewise the "another
// possible optimal path" of length 4 cannot be optimal for a distance-3
// pair. EXPERIMENTS.md records both discrepancies.)
func fig5GH(t *testing.T) (*topo.Mixed, *faults.Set) {
	t.Helper()
	m := topo.MustMixed(2, 3, 2)
	s := faults.NewSet(m)
	if err := s.FailNodes(m.MustParseAll("011", "100", "111", "121")...); err != nil {
		t.Fatal(err)
	}
	return m, s
}

func TestGHFig5Levels(t *testing.T) {
	m, s := fig5GH(t)
	as := Compute(s, Options{})
	want := map[string]int{
		"000": 3, "001": 3, "010": 3, "020": 3,
		"021": 1, "101": 1, "110": 1, "120": 1,
		"011": 0, "100": 0, "111": 0, "121": 0,
	}
	for addr, lv := range want {
		if got := as.Level(m.MustParse(addr)); got != lv {
			t.Errorf("S(%s) = %d, want %d", addr, got, lv)
		}
	}
	// "There are four nodes whose safety levels are 3, i.e., safe."
	if safe := as.SafeSet(); len(safe) != 4 {
		t.Errorf("safe set size = %d, want 4", len(safe))
	}
	if err := as.Verify(); err != nil {
		t.Error(err)
	}
}

// TestGHFig5SafeNeighborProperty checks the paper's remark on Fig. 5:
// "Because each unsafe but nonfaulty node has a safe neighbor, routing
// from any of these nodes is at least suboptimal."
func TestGHFig5SafeNeighborProperty(t *testing.T) {
	m, s := fig5GH(t)
	as := Compute(s, Options{})
	for a := 0; a < m.Nodes(); a++ {
		id := topo.NodeID(a)
		if s.NodeFaulty(id) || as.Safe(id) {
			continue
		}
		has := false
		for i := 0; i < m.Dim(); i++ {
			for _, b := range m.Siblings(id, i, nil) {
				has = has || as.Safe(b)
			}
		}
		if !has {
			t.Errorf("unsafe node %s has no safe neighbor", m.Format(id))
		}
	}
}

func TestGHFig5Route(t *testing.T) {
	m, s := fig5GH(t)
	r := NewRouter(Compute(s, Options{}), nil).Unicast(m.MustParse("010"), m.MustParse("101"))
	// Source 010 is safe, so C1 admits it.
	if r.Outcome != Optimal || r.Condition != CondC1 || r.Len() != 3 || r.Hamming != 3 {
		t.Fatalf("route = %v/%v, %d hops over distance %d; want optimal/C1, 3 hops",
			r.Outcome, r.Condition, r.Len(), r.Hamming)
	}
	if got := r.Path.FormatWith(m); got != "010 -> 000 -> 001 -> 101" {
		t.Errorf("route = %s, want 010 -> 000 -> 001 -> 101", got)
	}
}

// TestGHFig5RoutingFromAllSafeNodes checks that every unicast from a
// safe node to any nonfaulty node is optimal.
func TestGHFig5RoutingFromAllSafeNodes(t *testing.T) {
	m, s := fig5GH(t)
	as := Compute(s, Options{})
	rt := NewRouter(as, nil)
	for _, a := range as.SafeSet() {
		for d := 0; d < m.Nodes(); d++ {
			did := topo.NodeID(d)
			if s.NodeFaulty(did) {
				continue
			}
			r := rt.Unicast(a, did)
			if r.Outcome != Optimal || r.Err != nil || r.Len() != m.Distance(a, did) {
				t.Errorf("%s -> %s: %v in %d hops over distance %d (%v)",
					m.Format(a), m.Format(did), r.Outcome, r.Len(), m.Distance(a, did), r.Err)
			}
		}
	}
}

// TestGHHasOptimalPath checks the oracle on Fig. 5: the worked pair keeps
// its optimal path, a faulty source has none, and a node reaches itself.
func TestGHHasOptimalPath(t *testing.T) {
	m, s := fig5GH(t)
	src, dst := m.MustParse("010"), m.MustParse("101")
	if !faults.HasOptimalPath(s, src, dst) {
		t.Error("the optimal path 010 -> 101 should survive")
	}
	if faults.HasOptimalPath(s, m.MustParse("011"), dst) {
		t.Error("a faulty source has no optimal path")
	}
	if !faults.HasOptimalPath(s, m.MustParse("000"), m.MustParse("000")) {
		t.Error("the empty path 000 -> 000 exists")
	}
}

// TestGHBinaryRadixesReduceToHypercube checks that GH(2x2x...x2) agrees
// with Q_n on levels and rounds for identical fault sets: the NodeID
// encodings coincide (bit i is coordinate i).
func TestGHBinaryRadixesReduceToHypercube(t *testing.T) {
	rng := stats.NewRNG(4242)
	for n := 2; n <= 6; n++ {
		radix := make([]int, n)
		for i := range radix {
			radix[i] = 2
		}
		c, m := topo.MustCube(n), topo.MustMixed(radix...)
		for trial := 0; trial < 20; trial++ {
			s := faults.NewSet(c)
			faults.InjectUniform(s, rng, rng.Intn(c.Nodes()/2))
			g := faults.NewSet(m)
			if err := g.FailNodes(s.FaultyNodes()...); err != nil {
				t.Fatal(err)
			}
			want, got := Compute(s, Options{}), Compute(g, Options{})
			for a := 0; a < c.Nodes(); a++ {
				if got.Level(topo.NodeID(a)) != want.Level(topo.NodeID(a)) {
					t.Fatalf("n=%d trial %d: GH level %d != cube level %d at node %d (faults %s)",
						n, trial, got.Level(topo.NodeID(a)), want.Level(topo.NodeID(a)), a, s)
				}
			}
			if got.Rounds() != want.Rounds() {
				t.Errorf("n=%d trial %d: GH rounds %d != cube rounds %d",
					n, trial, got.Rounds(), want.Rounds())
			}
		}
	}
}

// TestGHTheorem2Prime checks Theorem 2': a k-safe node has an optimal
// path to every node within k differing coordinates, against the
// lattice oracle on random GH(3x3x2x2) instances.
func TestGHTheorem2Prime(t *testing.T) {
	rng := stats.NewRNG(909)
	m := topo.MustMixed(3, 3, 2, 2)
	for trial := 0; trial < 40; trial++ {
		s := faults.NewSet(m)
		if err := faults.InjectUniform(s, rng, rng.Intn(8)); err != nil {
			t.Fatal(err)
		}
		as := Compute(s, Options{})
		if err := as.Verify(); err != nil {
			t.Fatal(err)
		}
		for src := 0; src < m.Nodes(); src++ {
			sid := topo.NodeID(src)
			if s.NodeFaulty(sid) {
				continue
			}
			k := as.Level(sid)
			for dst := 0; dst < m.Nodes(); dst++ {
				did := topo.NodeID(dst)
				h := m.Distance(sid, did)
				if h == 0 || h > k || s.NodeFaulty(did) {
					continue
				}
				if !faults.HasOptimalPath(s, sid, did) {
					t.Fatalf("trial %d: S(%s)=%d but no optimal path to %s (h=%d)",
						trial, m.Format(sid), k, m.Format(did), h)
				}
			}
		}
	}
}

// checkGHRoute fails unless r keeps the routing guarantees: an optimal
// route is H hops long and a suboptimal one H+2, along a simple valid
// path whose intermediate nodes are nonfaulty.
func checkGHRoute(t *testing.T, m *topo.Mixed, s *faults.Set, r *Route) {
	t.Helper()
	want := m.Distance(r.Source, r.Dest)
	switch r.Outcome {
	case Failure:
		return
	case Suboptimal:
		want += 2
	}
	if r.Err != nil || r.Len() != want {
		t.Fatalf("%v %s -> %s: %d hops, want %d (err %v)",
			r.Outcome, m.Format(r.Source), m.Format(r.Dest), r.Len(), want, r.Err)
	}
	if !r.Path.Valid(m) || !r.Path.Simple() {
		t.Fatalf("bad path %s", r.Path.FormatWith(m))
	}
	for _, a := range r.Path[1:] {
		if a != r.Dest && s.NodeFaulty(a) {
			t.Fatalf("path %s crosses faulty %s", r.Path.FormatWith(m), m.Format(a))
		}
	}
}

func TestGHRoutingGuarantees(t *testing.T) {
	rng := stats.NewRNG(31415)
	m := topo.MustMixed(2, 3, 2, 3)
	for trial := 0; trial < 50; trial++ {
		s := faults.NewSet(m)
		if err := faults.InjectUniform(s, rng, rng.Intn(6)); err != nil {
			t.Fatal(err)
		}
		rt := NewRouter(Compute(s, Options{}), nil)
		for pair := 0; pair < 60; pair++ {
			src := topo.NodeID(rng.Intn(m.Nodes()))
			dst := topo.NodeID(rng.Intn(m.Nodes()))
			if !s.NodeFaulty(src) && !s.NodeFaulty(dst) {
				checkGHRoute(t, m, s, rt.Unicast(src, dst))
			}
		}
	}
}

// TestGHFaultFree checks that a fault-free GH settles in no rounds with
// every node safe, and routes corner to corner optimally.
func TestGHFaultFree(t *testing.T) {
	m := topo.MustMixed(3, 4, 2)
	as := Compute(faults.NewSet(m), Options{})
	if as.Rounds() != 0 || len(as.SafeSet()) != m.Nodes() {
		t.Errorf("fault-free GH: %d rounds, %d of %d nodes safe", as.Rounds(), len(as.SafeSet()), m.Nodes())
	}
	r := NewRouter(as, nil).Unicast(0, topo.NodeID(m.Nodes()-1))
	if r.Outcome != Optimal || r.Len() != 3 {
		t.Errorf("fault-free route: %v in %d hops, want optimal in 3", r.Outcome, r.Len())
	}
}

// TestGHRoundsBound checks that the extended GS stabilizes within n-1
// rounds (Section 4.2: "it still requires a total of (n-1) steps").
func TestGHRoundsBound(t *testing.T) {
	rng := stats.NewRNG(66)
	m := topo.MustMixed(3, 2, 4, 2)
	for trial := 0; trial < 30; trial++ {
		s := faults.NewSet(m)
		faults.InjectUniform(s, rng, rng.Intn(12))
		as := Compute(s, Options{})
		if as.Rounds() > m.Dim()-1 {
			t.Fatalf("rounds = %d > n-1 = %d", as.Rounds(), m.Dim()-1)
		}
		if err := as.Verify(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestGHUnicastToFaultyNeighbor checks that distance-1 delivery reaches
// even a faulty destination (the Theorem 2 base case carries over).
func TestGHUnicastToFaultyNeighbor(t *testing.T) {
	m, s := fig5GH(t)
	r := NewRouter(Compute(s, Options{}), nil).Unicast(m.MustParse("010"), m.MustParse("011"))
	if r.Outcome != Optimal || r.Len() != 1 {
		t.Errorf("unicast to faulty neighbor: %v in %d hops", r.Outcome, r.Len())
	}
}

func TestGHRouterRejectsBadInput(t *testing.T) {
	m, s := fig5GH(t)
	rt := NewRouter(Compute(s, Options{}), nil)
	if r := rt.Unicast(m.MustParse("011"), 0); r.Outcome != Failure || r.Err == nil {
		t.Error("faulty source should fail")
	}
	if r := rt.Unicast(topo.NodeID(99), 0); r.Outcome != Failure || r.Err == nil {
		t.Error("source outside the GH should fail")
	}
	if r := rt.Unicast(m.MustParse("000"), m.MustParse("000")); r.Outcome != Optimal || r.Len() != 0 {
		t.Error("self unicast should be trivially optimal")
	}
}

// TestExhaustiveGH232TwoFaults covers all C(12,2) = 66 two-fault sets of
// the paper's GH(2x3x2) and every source/destination pair. Two faults
// are fewer than n = 3 dimensions, so the Property 2 analogue holds and
// no unicast may fail.
func TestExhaustiveGH232TwoFaults(t *testing.T) {
	m := topo.MustMixed(2, 3, 2)
	count := 0
	forEachFaultSetIn(t, m, 2, func(s *faults.Set) {
		count++
		as := Compute(s, Options{})
		if err := as.Verify(); err != nil {
			t.Fatalf("faults %s: %v", s, err)
		}
		if as.Rounds() > m.Dim()-1 {
			t.Fatalf("faults %s: %d rounds > n-1", s, as.Rounds())
		}
		rt := NewRouter(as, nil)
		for src := 0; src < m.Nodes(); src++ {
			sid := topo.NodeID(src)
			if s.NodeFaulty(sid) {
				continue
			}
			for dst := 0; dst < m.Nodes(); dst++ {
				did := topo.NodeID(dst)
				if s.NodeFaulty(did) {
					continue
				}
				h := m.Distance(sid, did)
				if h >= 1 && h <= as.Level(sid) && !faults.HasOptimalPath(s, sid, did) {
					t.Fatalf("faults %s: Theorem 2' violated: S(%s)=%d, no optimal path to %s",
						s, m.Format(sid), as.Level(sid), m.Format(did))
				}
				r := rt.Unicast(sid, did)
				if r.Outcome == Failure {
					t.Fatalf("faults %s: unicast %s -> %s failed", s, m.Format(sid), m.Format(did))
				}
				checkGHRoute(t, m, s, r)
			}
		}
	})
	if count != 66 {
		t.Errorf("enumerated %d fault sets, want 66", count)
	}
}

// TestExhaustiveGH33UniquenessFromBelow checks that Definition 4's
// fixpoint is unique (the Theorem 1 argument carries over): for every
// fault set of size <= 3 in GH(3x3), iterating from the all-zero
// initialization reaches the levels Compute reaches from above.
func TestExhaustiveGH33UniquenessFromBelow(t *testing.T) {
	m := topo.MustMixed(3, 3)
	for k := 0; k <= 3; k++ {
		forEachFaultSetIn(t, m, k, func(s *faults.Set) {
			as := Compute(s, Options{})
			below := computeFromBelow(m, s)
			for a := 0; a < m.Nodes(); a++ {
				if below[a] != as.Level(topo.NodeID(a)) {
					t.Fatalf("faults %s: node %s from-below %d != from-above %d",
						s, m.Format(topo.NodeID(a)), below[a], as.Level(topo.NodeID(a)))
				}
			}
		})
	}
}

// TestExhaustiveGH222EqualsQ3 compares GH(2x2x2) with Q3 on every one of
// the 2^8 fault subsets, in levels and rounds.
func TestExhaustiveGH222EqualsQ3(t *testing.T) {
	c, m := topo.MustCube(3), topo.MustMixed(2, 2, 2)
	for mask := 0; mask < 256; mask++ {
		s, g := faults.NewSet(c), faults.NewSet(m)
		for a := 0; a < 8; a++ {
			if mask&(1<<a) != 0 {
				s.FailNode(topo.NodeID(a))
				g.FailNode(topo.NodeID(a))
			}
		}
		want, got := Compute(s, Options{}), Compute(g, Options{})
		if err := got.Verify(); err != nil {
			t.Fatalf("mask %08b: %v", mask, err)
		}
		for a := 0; a < 8; a++ {
			if got.Level(topo.NodeID(a)) != want.Level(topo.NodeID(a)) {
				t.Fatalf("mask %08b: node %d GH level %d != Q3 level %d",
					mask, a, got.Level(topo.NodeID(a)), want.Level(topo.NodeID(a)))
			}
		}
		if got.Rounds() != want.Rounds() {
			t.Fatalf("mask %08b: GH rounds %d != Q3 rounds %d", mask, got.Rounds(), want.Rounds())
		}
	}
}

// TestGHDisconnectedDetection isolates a node of GH(2x3x2) by failing
// all its neighbors (degree 1 + 2 + 1 = 4): the graph disconnects, no
// node can be n-safe, and every cross-partition unicast aborts at the
// source.
func TestGHDisconnectedDetection(t *testing.T) {
	m := topo.MustMixed(2, 3, 2)
	s := faults.NewSet(m)
	victim := m.MustParse("000")
	for i := 0; i < m.Dim(); i++ {
		if err := s.FailNodes(m.Siblings(victim, i, nil)...); err != nil {
			t.Fatal(err)
		}
	}
	labels, count := faults.Components(s)
	if count != 2 || faults.Connected(s) {
		t.Fatalf("components = %d, want 2", count)
	}
	as := Compute(s, Options{})
	if safe := as.SafeSet(); len(safe) != 0 {
		t.Errorf("%d nodes are n-safe in a disconnected GH", len(safe))
	}
	rt := NewRouter(as, nil)
	for src := 0; src < m.Nodes(); src++ {
		for dst := 0; dst < m.Nodes(); dst++ {
			if labels[src] < 0 || labels[dst] < 0 || labels[src] == labels[dst] {
				continue
			}
			if r := rt.Unicast(topo.NodeID(src), topo.NodeID(dst)); r.Outcome != Failure {
				t.Fatalf("cross-partition %s -> %s not aborted",
					m.Format(topo.NodeID(src)), m.Format(topo.NodeID(dst)))
			}
		}
	}
}
