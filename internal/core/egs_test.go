package core

import (
	"testing"

	"repro/internal/faults"
	"repro/internal/stats"
	"repro/internal/topo"
)

// fig4 builds the Section 4.1 scenario: a four-cube with four faulty
// nodes and one faulty link. The paper's figure does not list the node
// faults in the text; this fault set reproduces every stated fact of
// Fig. 4 exactly: S(1000) = 1 and S(1001) = 2 in their own views, both
// exposed as 0 to all other nodes, S(1111) = 4, no Hamming path from
// 1101 to 1000, and the suboptimal route 1101 -> 1111 -> 1011 -> 1010 ->
// 1000 of length H+2 = 4.
func fig4(t testing.TB) (*topo.Cube, *faults.Set) {
	t.Helper()
	c := topo.MustCube(4)
	s := faults.NewSet(c)
	if err := s.FailNodes(c.MustParseAll("0000", "0100", "1100", "1110")...); err != nil {
		t.Fatal(err)
	}
	if err := s.FailLink(c.MustParse("1000"), c.MustParse("1001")); err != nil {
		t.Fatal(err)
	}
	return c, s
}

func TestFig4EGSLevels(t *testing.T) {
	c, s := fig4(t)
	as := Compute(s, Options{})
	// Section 4.1: "Node 1000 is 1-safe and node 1001 is 2-safe.
	// However, both are treated as faulty by all the other nodes."
	if got := as.OwnLevel(c.MustParse("1000")); got != 1 {
		t.Errorf("own S(1000) = %d, want 1", got)
	}
	if got := as.OwnLevel(c.MustParse("1001")); got != 2 {
		t.Errorf("own S(1001) = %d, want 2", got)
	}
	if got := as.Level(c.MustParse("1000")); got != 0 {
		t.Errorf("public S(1000) = %d, want 0", got)
	}
	if got := as.Level(c.MustParse("1001")); got != 0 {
		t.Errorf("public S(1001) = %d, want 0", got)
	}
	// "the spare neighbor 1111 has a safety level of 4".
	if got := as.Level(c.MustParse("1111")); got != 4 {
		t.Errorf("S(1111) = %d, want 4", got)
	}
	if err := as.Verify(); err != nil {
		t.Errorf("Verify: %v", err)
	}
	// Full fixpoint of this instance (derived by hand, cross-checked by
	// Verify): pins the remaining values so regressions are loud.
	want := map[string]int{
		"0001": 1, "0010": 2, "0011": 4, "0101": 2,
		"0110": 1, "0111": 4, "1010": 1, "1011": 4,
		"1101": 1, "1111": 4,
	}
	for addr, lv := range want {
		if got := as.Level(c.MustParse(addr)); got != lv {
			t.Errorf("S(%s) = %d, want %d", addr, got, lv)
		}
	}
}

func TestFig4SuboptimalRoute(t *testing.T) {
	c, s := fig4(t)
	rt := router(t, s)
	src, dst := c.MustParse("1101"), c.MustParse("1000")

	// "Because both preferred neighbors of node 1101 are faulty, there
	// is no Hamming distance path between 1101 and 1000."
	if faults.HasOptimalPath(s, src, dst) {
		t.Fatal("no optimal path should exist")
	}
	cond, out := rt.Feasibility(src, dst)
	if cond != CondC3 || out != Suboptimal {
		t.Fatalf("feasibility = %v/%v, want C3/suboptimal", cond, out)
	}
	r := rt.Unicast(src, dst)
	if r.Outcome != Suboptimal || r.Err != nil {
		t.Fatalf("outcome %v err %v", r.Outcome, r.Err)
	}
	want := "1101 -> 1111 -> 1011 -> 1010 -> 1000"
	if got := r.Path.FormatWith(c); got != want {
		t.Errorf("path = %s, want %s", got, want)
	}
	if r.Len() != r.Hamming+2 {
		t.Errorf("length %d, want H+2 = %d", r.Len(), r.Hamming+2)
	}
}

func TestEGSWithNoLinkFaultsEqualsGS(t *testing.T) {
	// EGS must degenerate to GS when N2 is empty. We force a link fault
	// with an empty N2 — a link failed before both its endpoints, which
	// keeps it recorded — and compare against the same node faults alone.
	rng := stats.NewRNG(42)
	c := topo.MustCube(5)
	for trial := 0; trial < 40; trial++ {
		s := faults.NewSet(c)
		faults.InjectUniform(s, rng, rng.Intn(8))
		u := topo.NodeID(rng.Intn(c.Nodes()))
		v := c.Neighbor(u, rng.Intn(c.Dim()))
		withLink := faults.NewSet(c)
		withLink.FailLink(u, v)
		withLink.FailNodes(append(s.FaultyNodes(), u, v)...)
		s.FailNodes(u, v)
		if !withLink.HasLinkFaults() {
			t.Fatal("the dead link was dropped")
		}
		gs := Compute(s, Options{})
		egs := Compute(withLink, Options{}) // N2 is empty: must agree
		for a := 0; a < c.Nodes(); a++ {
			id := topo.NodeID(a)
			if gs.Level(id) != egs.Level(id) || gs.OwnLevel(id) != egs.OwnLevel(id) {
				t.Fatalf("trial %d: EGS != GS at %s (faults %s)", trial, c.Format(id), withLink)
			}
		}
		if gs.Rounds() != egs.Rounds() || gs.Evals() != egs.Evals() {
			t.Fatalf("trial %d: EGS rounds/evals %d/%d, GS %d/%d", trial,
				egs.Rounds(), egs.Evals(), gs.Rounds(), gs.Evals())
		}
	}
}

func TestEGSTreatsLinkEndpointsAsFaultyForOthers(t *testing.T) {
	// A single faulty link in an otherwise healthy cube: both endpoints
	// join N2 and are publicly 0; every other node's level reflects two
	// "faulty" nodes in the cube.
	c := topo.MustCube(4)
	s := faults.NewSet(c)
	s.FailLink(c.MustParse("0000"), c.MustParse("0001"))
	as := Compute(s, Options{})
	if as.Level(c.MustParse("0000")) != 0 || as.Level(c.MustParse("0001")) != 0 {
		t.Error("N2 endpoints must expose level 0")
	}
	// Each endpoint's own view: only the far end of its faulty link is
	// faulty; everything else is healthy. One zero neighbor in a
	// 4-cube: sorted (0, x, y, z) with x,y,z the healthy neighbors.
	ownA := as.OwnLevel(c.MustParse("0000"))
	ownB := as.OwnLevel(c.MustParse("0001"))
	if ownA < 1 || ownB < 1 {
		t.Errorf("own levels too low: %d, %d", ownA, ownB)
	}
	if err := as.Verify(); err != nil {
		t.Error(err)
	}
	// Nodes adjacent to both endpoints see two zeros: level 1. E.g.
	// nothing is adjacent to both 0000 and 0001 except... in a cube no
	// node is adjacent to both endpoints of an edge, so each other node
	// sees at most one zero and keeps a level >= 2.
	for a := 0; a < c.Nodes(); a++ {
		id := topo.NodeID(a)
		if id == c.MustParse("0000") || id == c.MustParse("0001") {
			continue
		}
		if as.Level(id) < 2 {
			t.Errorf("S(%s) = %d with a single faulty link", c.Format(id), as.Level(id))
		}
	}
}

func TestEGSRoutingNeverCrossesFaultyLink(t *testing.T) {
	rng := stats.NewRNG(2718)
	c := topo.MustCube(5)
	for trial := 0; trial < 50; trial++ {
		s := faults.NewSet(c)
		faults.InjectUniform(s, rng, rng.Intn(4))
		faults.InjectUniformLinks(s, rng, 1+rng.Intn(4))
		rt := router(t, s)
		for pair := 0; pair < 40; pair++ {
			src := topo.NodeID(rng.Intn(c.Nodes()))
			dst := topo.NodeID(rng.Intn(c.Nodes()))
			if s.NodeFaulty(src) {
				continue
			}
			r := rt.Unicast(src, dst)
			if r.Outcome == Failure {
				continue
			}
			if r.Err != nil {
				t.Fatalf("trial %d: transport error on admitted route %s -> %s: %v (faults %s)",
					trial, c.Format(src), c.Format(dst), r.Err, s)
			}
			for i := 1; i < len(r.Path); i++ {
				if s.LinkFaulty(r.Path[i-1], r.Path[i]) {
					t.Fatalf("trial %d: route crosses faulty link (%s,%s)",
						trial, c.Format(r.Path[i-1]), c.Format(r.Path[i]))
				}
			}
			// Intermediate nodes must be nonfaulty.
			if len(r.Path) > 2 {
				for _, a := range r.Path[1 : len(r.Path)-1] {
					if s.NodeFaulty(a) {
						t.Fatalf("trial %d: route crosses faulty node %s", trial, c.Format(a))
					}
				}
			}
		}
	}
}

func TestN2SourceUsesOwnLevel(t *testing.T) {
	// Section 4.1: "The proposed routing algorithm can also be used at
	// nonfaulty nodes with adjacent faulty link(s)" using their own
	// safety level. A node whose only defect is one faulty link can
	// still originate unicasts.
	c := topo.MustCube(4)
	s := faults.NewSet(c)
	s.FailLink(c.MustParse("0000"), c.MustParse("0001"))
	rt := router(t, s)
	src := c.MustParse("0000")
	if rt.Assignment().Level(src) != 0 {
		t.Fatal("scenario: source should be publicly 0")
	}
	own := rt.Assignment().OwnLevel(src)
	if own < 1 {
		t.Fatalf("own level = %d", own)
	}
	// Any destination within own distance must be admitted optimally
	// (except across the dead link; 0001 at distance 1 is reached via
	// C1 only if a Hamming path exists — the direct link is dead, so
	// routing to 0001 must NOT be admitted as optimal at distance 1).
	for dst := 0; dst < c.Nodes(); dst++ {
		did := topo.NodeID(dst)
		h := topo.Hamming(src, did)
		if h == 0 || h > own {
			continue
		}
		cond, out := rt.Feasibility(src, did)
		if did == c.MustParse("0001") {
			// Dead-link destination: optimal impossible, suboptimal
			// (via a spare) is the best admissible answer.
			if out == Optimal && cond == CondC2 {
				t.Error("C2 must not admit the dead-link destination via its own far end")
			}
			continue
		}
		if out != Optimal {
			t.Errorf("dst %s at H=%d: %v/%v, want optimal", c.Format(did), h, cond, out)
		}
		r := rt.Unicast(src, did)
		if r.Outcome != Optimal || r.Err != nil {
			t.Errorf("dst %s: %v err %v", c.Format(did), r.Outcome, r.Err)
		}
	}
}

func TestDeadLinkDestinationReachedSuboptimally(t *testing.T) {
	// 0000 -> 0001 with the direct link dead: C1 with own level >= 1
	// would promise a Hamming path that does not exist, so the router
	// must take the C3 detour (H+2 = 3 hops) or the C1/C2 check must
	// not rely on the dead link. The implementation treats the far end
	// of a dead link as level 0 and the own-level rule of Section 4.1
	// excludes "the end node(s) of adjacent faulty link(s)", so the
	// result must be a 3-hop delivery.
	c := topo.MustCube(4)
	s := faults.NewSet(c)
	s.FailLink(c.MustParse("0000"), c.MustParse("0001"))
	rt := router(t, s)
	r := rt.Unicast(c.MustParse("0000"), c.MustParse("0001"))
	if r.Outcome == Failure {
		t.Fatalf("dead-link destination should still be reachable: %v", r.Err)
	}
	if r.Err != nil {
		t.Fatal(r.Err)
	}
	if r.Len() != 3 {
		t.Errorf("length = %d, want 3 (H+2)", r.Len())
	}
	for i := 1; i < len(r.Path); i++ {
		if s.LinkFaulty(r.Path[i-1], r.Path[i]) {
			t.Error("route crosses the dead link")
		}
	}
}
