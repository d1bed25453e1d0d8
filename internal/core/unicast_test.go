package core

import (
	"strings"
	"testing"

	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/stats"
	"repro/internal/topo"
)

func router(t testing.TB, s *faults.Set) *Router {
	t.Helper()
	return NewRouter(Compute(s, Options{}), nil)
}

func TestOutcomeAndConditionStrings(t *testing.T) {
	if Optimal.String() != "optimal" || Suboptimal.String() != "suboptimal" || Failure.String() != "failure" {
		t.Error("outcome strings wrong")
	}
	if Outcome(9).String() == "" {
		t.Error("unknown outcome should still render")
	}
	if CondC1.String() != "C1" || CondC2.String() != "C2" || CondC3.String() != "C3" || CondNone.String() != "none" {
		t.Error("condition strings wrong")
	}
}

// Section 3.2, first worked example: s = 1110, d = 0001 in the Fig. 1
// cube. S(1110) = 4 = H, C1 holds; the paper's trace (with the paper's
// own tie-break choice "say 1111 along dimension 0", which LowestDim
// reproduces) is 1110 -> 1111 -> 1101 -> 0101 -> 0001.
func TestPaperExampleOptimalC1(t *testing.T) {
	c, s := fig1(t)
	rt := router(t, s)
	src, dst := c.MustParse("1110"), c.MustParse("0001")

	cond, out := rt.Feasibility(src, dst)
	if cond != CondC1 || out != Optimal {
		t.Fatalf("feasibility = %v/%v, want C1/optimal", cond, out)
	}
	r := rt.Unicast(src, dst)
	if r.Outcome != Optimal || r.Err != nil {
		t.Fatalf("outcome = %v, err = %v", r.Outcome, r.Err)
	}
	want := "1110 -> 1111 -> 1101 -> 0101 -> 0001"
	if got := r.Path.FormatWith(c); got != want {
		t.Errorf("path = %s, want %s", got, want)
	}
	if r.Len() != 4 || r.Len() != r.Hamming {
		t.Errorf("length %d, want Hamming %d", r.Len(), r.Hamming)
	}
	// Navigation vector bookkeeping: first hop resets bit 0.
	if r.Hops[0].Nav != topo.NavVector(c.MustParse("1110")) {
		t.Errorf("nav after hop 1 = %04b, want 1110", r.Hops[0].Nav)
	}
	if !r.Hops[len(r.Hops)-1].Nav.Zero() {
		t.Error("final nav should be zero")
	}
}

// Section 3.2, second worked example: s = 0001, d = 1100. S(0001) = 1 <
// H = 3 but preferred neighbors 0000 and 0101 have level 2 = H-1, so C2
// admits an optimal unicast; the paper's path is 0001 -> 0000 -> 1000 ->
// 1100.
func TestPaperExampleOptimalC2(t *testing.T) {
	c, s := fig1(t)
	rt := router(t, s)
	src, dst := c.MustParse("0001"), c.MustParse("1100")

	cond, out := rt.Feasibility(src, dst)
	if cond != CondC2 || out != Optimal {
		t.Fatalf("feasibility = %v/%v, want C2/optimal", cond, out)
	}
	r := rt.Unicast(src, dst)
	if r.Outcome != Optimal || r.Err != nil {
		t.Fatalf("outcome = %v, err = %v", r.Outcome, r.Err)
	}
	want := "0001 -> 0000 -> 1000 -> 1100"
	if got := r.Path.FormatWith(c); got != want {
		t.Errorf("path = %s, want %s", got, want)
	}
}

// Section 3.3, Fig. 3 examples in the disconnected cube.
func TestFig3DisconnectedRouting(t *testing.T) {
	c, s := fig3(t)
	rt := router(t, s)

	// s1 = 0101 -> d1 = 0000: H = 2 = S(0101), C1, optimal.
	r1 := rt.Unicast(c.MustParse("0101"), c.MustParse("0000"))
	if r1.Outcome != Optimal || r1.Condition != CondC1 {
		t.Errorf("0101->0000: %v/%v", r1.Outcome, r1.Condition)
	}
	if r1.Len() != 2 {
		t.Errorf("0101->0000 length %d", r1.Len())
	}

	// s2 = 0111 -> d2 = 1011: S(0111) = 1 < H = 2, but preferred
	// neighbor 0011 has level 2 > H-1: C2, optimal.
	r2 := rt.Unicast(c.MustParse("0111"), c.MustParse("1011"))
	if r2.Outcome != Optimal || r2.Condition != CondC2 {
		t.Errorf("0111->1011: %v/%v", r2.Outcome, r2.Condition)
	}
	if r2.Len() != 2 {
		t.Errorf("0111->1011 length %d", r2.Len())
	}
	// The admitted route must go through 0011 (the other preferred
	// neighbor 1111 is faulty).
	if r2.Path[1] != c.MustParse("0011") {
		t.Errorf("0111->1011 via %s, want 0011", c.Format(r2.Path[1]))
	}

	// Destination 1110 is in the other part: C1 fails (S(0111)=1 < 2),
	// C2 fails (preferred 0110 and 1111 are faulty), C3 fails (spare
	// 0101 and 0011 have level 2 < H+1 = 3): abort at the source.
	r3 := rt.Unicast(c.MustParse("0111"), c.MustParse("1110"))
	if r3.Outcome != Failure || r3.Condition != CondNone {
		t.Errorf("0111->1110: %v/%v, want failure/none", r3.Outcome, r3.Condition)
	}
	if r3.Err != nil {
		t.Errorf("source-side abort should carry no transport error, got %v", r3.Err)
	}
	if len(r3.Path) != 0 {
		t.Error("failed unicast should have no path")
	}

	// Any unicast *initiated at* the island 1110 fails too: S(1110)=1,
	// every neighbor faulty.
	r4 := rt.Unicast(c.MustParse("1110"), c.MustParse("0000"))
	if r4.Outcome != Failure {
		t.Errorf("1110->0000: %v, want failure", r4.Outcome)
	}
}

func TestUnicastToSelf(t *testing.T) {
	c, s := fig1(t)
	rt := router(t, s)
	r := rt.Unicast(c.MustParse("0101"), c.MustParse("0101"))
	if r.Outcome != Optimal || r.Len() != 0 || len(r.Path) != 1 {
		t.Errorf("self unicast: %v len %d", r.Outcome, r.Len())
	}
}

func TestUnicastFromFaultySource(t *testing.T) {
	c, s := fig1(t)
	rt := router(t, s)
	r := rt.Unicast(c.MustParse("0011"), c.MustParse("0000"))
	if r.Outcome != Failure || r.Err == nil {
		t.Error("faulty source should fail with error")
	}
}

func TestUnicastOutsideCube(t *testing.T) {
	_, s := fig1(t)
	rt := router(t, s)
	r := rt.Unicast(500, 0)
	if r.Outcome != Failure || r.Err == nil {
		t.Error("out-of-cube source should fail with error")
	}
}

func TestUnicastToFaultyNeighborDelivers(t *testing.T) {
	// Theorem 2 base case: a node reaches all its neighbors, faulty or
	// not. A distance-1 unicast to a faulty destination is delivered.
	c, s := fig1(t)
	rt := router(t, s)
	r := rt.Unicast(c.MustParse("0001"), c.MustParse("0011"))
	if r.Outcome != Optimal || r.Err != nil {
		t.Errorf("unicast to faulty neighbor: %v err=%v", r.Outcome, r.Err)
	}
	if r.Len() != 1 {
		t.Errorf("length = %d", r.Len())
	}
}

func TestSuboptimalRouting(t *testing.T) {
	// Build a scenario where only C3 holds: source with low level whose
	// preferred neighbors are all weak but a spare neighbor is strong.
	// In Q4 fail 3 nodes around the source's preferred side.
	c := topo.MustCube(4)
	s := faults.NewSet(c)
	// Source 0000, dest 0011 (H=2). Kill 0001 and 0010 (both preferred
	// neighbors): optimal impossible, C1 fails (S(0000) drops), C2
	// fails. Spare neighbors 0100 and 1000 keep high levels.
	if err := s.FailNodes(c.MustParseAll("0001", "0010")...); err != nil {
		t.Fatal(err)
	}
	rt := router(t, s)
	src, dst := c.MustParse("0000"), c.MustParse("0011")
	if lv := rt.Assignment().Level(src); lv >= 2 {
		t.Fatalf("S(0000) = %d, scenario broken", lv)
	}
	cond, out := rt.Feasibility(src, dst)
	if cond != CondC3 || out != Suboptimal {
		t.Fatalf("feasibility = %v/%v, want C3/suboptimal", cond, out)
	}
	r := rt.Unicast(src, dst)
	if r.Outcome != Suboptimal || r.Err != nil {
		t.Fatalf("outcome %v err %v", r.Outcome, r.Err)
	}
	if r.Len() != r.Hamming+2 {
		t.Errorf("suboptimal length %d, want H+2 = %d", r.Len(), r.Hamming+2)
	}
	if !r.Hops[0].Spare {
		t.Error("first hop should be the spare detour")
	}
	for _, h := range r.Hops[1:] {
		if h.Spare {
			t.Error("only the first hop may be spare")
		}
	}
	if !r.Path.Valid(c) || !r.Path.Simple() {
		t.Error("suboptimal path must be a simple valid path")
	}
	// No intermediate node is faulty.
	for _, a := range r.Path[1 : len(r.Path)-1] {
		if s.NodeFaulty(a) {
			t.Errorf("intermediate %s is faulty", c.Format(a))
		}
	}
}

func TestTieBreakPolicies(t *testing.T) {
	c, s := fig1(t)
	as := Compute(s, Options{})
	low := NewRouter(as, LowestDim)
	high := NewRouter(as, HighestDim)
	src, dst := c.MustParse("1110"), c.MustParse("0001")
	rl := low.Unicast(src, dst)
	rh := high.Unicast(src, dst)
	if rl.Outcome != Optimal || rh.Outcome != Optimal {
		t.Fatal("both policies should route optimally")
	}
	if rl.Len() != rh.Len() {
		t.Errorf("both optimal paths must have length H: %d vs %d", rl.Len(), rh.Len())
	}
	// The first hop choices differ: three preferred neighbors tie at
	// level 4 (dims 0, 1, 2).
	if rl.Path[1] == rh.Path[1] {
		t.Error("tie-break policies should pick different first hops here")
	}
	if rl.Path[1] != c.MustParse("1111") {
		t.Errorf("LowestDim first hop = %s, want 1111", c.Format(rl.Path[1]))
	}
	if rh.Path[1] != c.MustParse("1010") {
		t.Errorf("HighestDim first hop = %s, want 1010", c.Format(rh.Path[1]))
	}
}

func TestGuaranteeBelowNFaults(t *testing.T) {
	// Theorem 3 + Property 2: with fewer than n faults every unicast
	// between nonfaulty nodes is admitted (optimal or suboptimal) and
	// the delivered path length is H or H+2.
	rng := stats.NewRNG(31337)
	for n := 3; n <= 8; n++ {
		c := topo.MustCube(n)
		for trial := 0; trial < 25; trial++ {
			s := faults.NewSet(c)
			faults.InjectUniform(s, rng, rng.Intn(n))
			rt := router(t, s)
			for pair := 0; pair < 40; pair++ {
				src := topo.NodeID(rng.Intn(c.Nodes()))
				dst := topo.NodeID(rng.Intn(c.Nodes()))
				if s.NodeFaulty(src) || s.NodeFaulty(dst) {
					continue
				}
				r := rt.Unicast(src, dst)
				if r.Outcome == Failure {
					t.Fatalf("n=%d faults=%d: unicast %s -> %s failed (%v)",
						n, s.NodeFaults(), c.Format(src), c.Format(dst), r.Err)
				}
				checkDelivered(t, c, s, r)
			}
		}
	}
}

// checkDelivered validates the transport invariants of a delivered route.
func checkDelivered(t *testing.T, c *topo.Cube, s *faults.Set, r *Route) {
	t.Helper()
	if r.Err != nil {
		t.Fatalf("route error: %v", r.Err)
	}
	if !r.Path.Valid(c) {
		t.Fatalf("invalid path %v", r.Path)
	}
	if !r.Path.Simple() {
		t.Fatalf("non-simple path %s", r.Path.FormatWith(c))
	}
	if r.Path[0] != r.Source || r.Path[len(r.Path)-1] != r.Dest {
		t.Fatalf("path endpoints wrong")
	}
	switch r.Outcome {
	case Optimal:
		if r.Len() != r.Hamming {
			t.Fatalf("optimal route has length %d != H %d", r.Len(), r.Hamming)
		}
	case Suboptimal:
		if r.Len() != r.Hamming+2 {
			t.Fatalf("suboptimal route has length %d != H+2 %d", r.Len(), r.Hamming+2)
		}
	}
	if len(r.Path) > 2 {
		for _, a := range r.Path[1 : len(r.Path)-1] {
			if s.NodeFaulty(a) {
				t.Fatalf("path crosses faulty node %s", c.Format(a))
			}
		}
	}
}

func TestHeavyFaultsEitherRouteOrDetectablyFail(t *testing.T) {
	// Beyond n-1 faults the algorithm may fail, but it must fail at the
	// source (no transport error) and every admitted route must deliver
	// with the promised length.
	rng := stats.NewRNG(777)
	c := topo.MustCube(6)
	for trial := 0; trial < 60; trial++ {
		s := faults.NewSet(c)
		faults.InjectUniform(s, rng, 6+rng.Intn(20))
		rt := router(t, s)
		for pair := 0; pair < 40; pair++ {
			src := topo.NodeID(rng.Intn(c.Nodes()))
			dst := topo.NodeID(rng.Intn(c.Nodes()))
			if s.NodeFaulty(src) || s.NodeFaulty(dst) {
				continue
			}
			r := rt.Unicast(src, dst)
			if r.Outcome == Failure {
				if r.Err != nil {
					t.Fatalf("trial %d: admitted route hit transport failure: %v (faults %s)",
						trial, r.Err, s)
				}
				continue
			}
			checkDelivered(t, c, s, r)
		}
	}
}

func TestOptimalAdmissionImpliesOptimalPathExists(t *testing.T) {
	// Soundness of C1/C2 against the ground-truth oracle: when the
	// router promises an optimal unicast, an optimal path must exist.
	rng := stats.NewRNG(13)
	c := topo.MustCube(6)
	for trial := 0; trial < 50; trial++ {
		s := faults.NewSet(c)
		faults.InjectUniform(s, rng, rng.Intn(12))
		rt := router(t, s)
		for pair := 0; pair < 60; pair++ {
			src := topo.NodeID(rng.Intn(c.Nodes()))
			dst := topo.NodeID(rng.Intn(c.Nodes()))
			if s.NodeFaulty(src) || s.NodeFaulty(dst) {
				continue
			}
			if _, out := rt.Feasibility(src, dst); out == Optimal {
				if !faults.HasOptimalPath(s, src, dst) {
					t.Fatalf("trial %d: optimal admitted %s->%s but no optimal path (faults %s)",
						trial, c.Format(src), c.Format(dst), s)
				}
			}
		}
	}
}

func TestFeasibilityZeroDistance(t *testing.T) {
	_, s := fig1(t)
	rt := router(t, s)
	cond, out := rt.Feasibility(5, 5)
	if cond != CondC1 || out != Optimal {
		t.Errorf("self feasibility = %v/%v", cond, out)
	}
}

func TestRouterOnTruncatedAssignmentFailsSafely(t *testing.T) {
	// Routing on a deliberately inconsistent assignment (GS truncated
	// to 1 round) may make bad promises; the router must not panic or
	// loop — it reports a transport error via Route.Err.
	c := topo.MustCube(5)
	s := faults.NewSet(c)
	rng := stats.NewRNG(99)
	faults.InjectUniform(s, rng, 8)
	as := Compute(s, Options{MaxRounds: 1})
	rt := NewRouter(as, nil)
	for src := 0; src < c.Nodes(); src++ {
		for dst := 0; dst < c.Nodes(); dst += 3 {
			if s.NodeFaulty(topo.NodeID(src)) {
				continue
			}
			r := rt.Unicast(topo.NodeID(src), topo.NodeID(dst))
			// Whatever happens must terminate with a classified result.
			if r.Outcome != Optimal && r.Outcome != Suboptimal && r.Outcome != Failure {
				t.Fatal("unclassified outcome")
			}
		}
	}
}

// TestFeasibilityMatchesUnicastQnAndGH is the differential behind the
// source-side answer. On every scenario source of the package (random
// Qn and GH instances, exhaustive Q3 and Q4 node x link fault sets,
// randomized Q5-Q10, the differential goldens under both tie policies,
// and every step of a chaos churn run) and for every pair checked,
// faulty and out-of-range endpoints included, Feasibility and Summary
// report what Unicast reaches: condition, outcome, Hamming distance,
// hop count, detours and error exit. Each pair is checked on the live
// assignment and on its detached copy, which reads node faults from its
// own-level table.
func TestFeasibilityMatchesUnicastQnAndGH(t *testing.T) {
	rng := stats.NewRNG(2718)
	for _, src := range []struct {
		name string
		run  func(check func(set *faults.Set, as *Assignment, tie TieBreak, pairs [][2]topo.NodeID))
	}{
		{"random Qn and GH", func(check func(*faults.Set, *Assignment, TieBreak, [][2]topo.NodeID)) {
			for _, tp := range []topo.Topology{topo.MustCube(4), topo.MustCube(6), topo.MustMixed(2, 3, 2), topo.MustMixed(2, 3, 3)} {
				for trial := 0; trial < 8; trial++ {
					s := faults.NewSet(tp)
					if err := faults.InjectUniform(s, rng, rng.Intn(tp.Nodes()/3)); err != nil {
						t.Fatal(err)
					}
					if err := faults.InjectUniformLinks(s, rng, rng.Intn(3)); err != nil {
						t.Fatal(err)
					}
					check(s, Compute(s, Options{}), nil, allPairs(tp, 2))
				}
			}
		}},
		{"exhaustive Q3 and Q4 node x link", func(check func(*faults.Set, *Assignment, TieBreak, [][2]topo.NodeID)) {
			for n, maxNodes := range map[int]int{3: 8, 4: 2} {
				tp := topo.MustCube(n)
				pairs := allPairs(tp, 1)
				links := append([]faults.Link{{}}, allLinks(tp)...)
				for k := 0; k <= maxNodes; k++ {
					forEachFaultSetIn(t, tp, k, func(nodes *faults.Set) {
						for _, l := range links {
							s := nodes.Clone()
							if l != (faults.Link{}) {
								if err := s.FailLink(l.A, l.B); err != nil {
									t.Fatal(err)
								}
							}
							check(s, Compute(s, Options{}), nil, pairs)
						}
					})
				}
			}
		}},
		{"randomized Q5-Q10", func(check func(*faults.Set, *Assignment, TieBreak, [][2]topo.NodeID)) {
			for n := 5; n <= 10; n++ {
				tp := topo.MustCube(n)
				for trial := 0; trial < 3; trial++ {
					s := faults.NewSet(tp)
					if err := faults.InjectUniform(s, rng, 1+rng.Intn(tp.Nodes()/6)); err != nil {
						t.Fatal(err)
					}
					if err := faults.InjectUniformLinks(s, rng, rng.Intn(2*n)); err != nil {
						t.Fatal(err)
					}
					pairs := make([][2]topo.NodeID, 1500)
					for i := range pairs {
						pairs[i] = [2]topo.NodeID{topo.NodeID(rng.Intn(tp.Nodes())), topo.NodeID(rng.Intn(tp.Nodes()))}
					}
					check(s, Compute(s, Options{}), nil, pairs)
				}
			}
		}},
		{"differential goldens", func(check func(*faults.Set, *Assignment, TieBreak, [][2]topo.NodeID)) {
			for _, sc := range diffScenarios() {
				s := sc.set()
				for _, tie := range []TieBreak{LowestDim, HighestDim} {
					check(s, Compute(s, Options{}), tie, allPairs(s.Topology(), 1))
				}
			}
		}},
		{"chaos steps", func(check func(*faults.Set, *Assignment, TieBreak, [][2]topo.NodeID)) {
			for _, tp := range []topo.Topology{topo.MustCube(6), topo.MustMixed(4, 2, 3)} {
				pairs := allPairs(tp, 0)
				set := faults.NewSet(tp)
				as := Compute(set, Options{})
				for i, ev := range faults.ChurnSchedule(tp, 31, 60, faults.ChurnOptions{Links: true}) {
					gen := set.Generation()
					if err := set.Apply(ev); err != nil {
						t.Fatal(err)
					}
					delta, _ := set.Since(gen)
					rep, ok := RepairLevels(as, set, delta, Options{})
					if !ok {
						t.Fatalf("%v step %d: repair refused", tp, i)
					}
					as = rep
					check(set, as, HighestDim, pairs)
				}
			}
		}},
	} {
		t.Run(src.name, func(t *testing.T) {
			checked := 0
			src.run(func(set *faults.Set, as *Assignment, tie TieBreak, pairs [][2]topo.NodeID) {
				live, det := NewRouter(as, tie), NewRouter(as.Detach(), tie)
				for _, p := range pairs {
					a, b := p[0], p[1]
					r := live.Unicast(a, b)
					want := r.Summary()
					detours := 0
					for _, h := range r.Hops {
						if h.Spare {
							detours++
						}
					}
					for _, rt := range []*Router{live, det} {
						sum := rt.Summary(a, b)
						cond, out := rt.Feasibility(a, b)
						walked := want
						if rt == det {
							walked = det.Unicast(a, b).Summary()
						}
						if sum != want || walked != want || cond != want.Condition || out != want.Outcome || sum.Detours() != detours {
							t.Fatalf("%v with faults %s, detached %v: %d -> %d: Summary %+v (detours %d), Feasibility %v/%v, walk %+v, live walk %+v (detours %d)",
								set.Topology(), set, rt == det, a, b, sum, sum.Detours(), cond, out, walked, want, detours)
						}
						if ws := rt.WalkSummary(a, b); ws != want {
							t.Fatalf("%v with faults %s, detached %v: %d -> %d: WalkSummary %+v, walk %+v",
								set.Topology(), set, rt == det, a, b, ws, want)
						}
					}
					checked++
				}
			})
			t.Logf("%d pairs", checked)
		})
	}
}

// TestWalkSummaryOnTruncatedAssignments checks WalkSummary against
// Unicast(s, d).Summary() for every pair of cubes and generalized cubes
// whose GS runs were cut after one round, where some admitted walks
// fail midway: the walked summary must then carry the failure, the
// error and the hops made before it.
func TestWalkSummaryOnTruncatedAssignments(t *testing.T) {
	rng := stats.NewRNG(4242)
	failed := 0
	for _, tp := range []topo.Topology{topo.MustCube(5), topo.MustCube(6), topo.MustCube(7), topo.MustMixed(3, 3, 2, 2), topo.MustMixed(4, 3, 3)} {
		for trial := 0; trial < 6; trial++ {
			s := faults.NewSet(tp)
			if err := faults.InjectUniform(s, rng, tp.Nodes()/5); err != nil {
				t.Fatal(err)
			}
			if err := faults.InjectUniformLinks(s, rng, trial); err != nil {
				t.Fatal(err)
			}
			as := Compute(s, Options{MaxRounds: 1})
			for _, rt := range []*Router{NewRouter(as, LowestDim), NewRouter(as.Detach(), HighestDim)} {
				for _, p := range allPairs(tp, 1) {
					want := rt.Unicast(p[0], p[1]).Summary()
					if got := rt.WalkSummary(p[0], p[1]); got != want {
						t.Fatalf("%v with faults %s: %d -> %d: WalkSummary %+v, walk %+v", tp, s, p[0], p[1], got, want)
					}
					if want.Err && want.Hops > 0 {
						failed++
					}
				}
			}
		}
	}
	if failed == 0 {
		t.Fatal("no walk failed midway; the truncated assignments exercise nothing")
	}
	t.Logf("%d walks failed midway", failed)
}

// allPairs returns every ordered pair of tp's nodes and of extra node
// IDs past its end.
func allPairs(tp topo.Topology, extra int) [][2]topo.NodeID {
	n := tp.Nodes() + extra
	out := make([][2]topo.NodeID, 0, n*n)
	for a := 0; a < n; a++ {
		for b := 0; b < n; b++ {
			out = append(out, [2]topo.NodeID{topo.NodeID(a), topo.NodeID(b)})
		}
	}
	return out
}

// allLinks returns every link of tp, normalized, in ascending order.
func allLinks(tp topo.Topology) []faults.Link {
	var out []faults.Link
	var sibs []topo.NodeID
	for a := 0; a < tp.Nodes(); a++ {
		for i := 0; i < tp.Dim(); i++ {
			sibs = tp.Siblings(topo.NodeID(a), i, sibs[:0])
			for _, b := range sibs {
				if topo.NodeID(a) < b {
					out = append(out, faults.Link{A: topo.NodeID(a), B: b})
				}
			}
		}
	}
	return out
}

// TestSummaryObservesLikeAWalk serves the same pairs summarized on one
// registry and walked on another and checks that every route_* metric
// family reads the same: admissions, outcomes, hop and spare-hop
// counts, the histograms, and the forward errors of faulty sources.
func TestSummaryObservesLikeAWalk(t *testing.T) {
	for _, sc := range diffScenarios() {
		s := sc.set()
		as := Compute(s, Options{}).Detach()
		walked, summarized := obs.NewRegistry(), obs.NewRegistry()
		wr := NewRouter(as, sc.tie).Observe(walked.RouteObserver())
		sr := NewRouter(as, sc.tie).Observe(summarized.RouteObserver())
		for _, p := range allPairs(s.Topology(), 1) {
			wr.Unicast(p[0], p[1])
			sr.Summary(p[0], p[1])
		}
		if w, m := routeMetrics(t, walked), routeMetrics(t, summarized); w != m {
			t.Fatalf("%s: route metrics differ\nwalked:\n%s\nsummarized:\n%s", sc.name, w, m)
		}
	}
}

// TestSummariesObserveLikeSummary decides every pair of each scenario,
// with one node beyond the topology, through Summaries on one registry
// and through Summary on another, on the live assignment and on its
// detached copy. The answers must agree, and every route_* line must
// read the same: count and RouteTally.CountC1, which Summaries tallies
// through, and Summary's observer calls are the places an answer
// becomes metric updates. The pairs go to Summaries in slices of 1, 3,
// 9, ... pairs, under one stop that ends the run three pairs before the
// last: the answers decided before it are counted, the rest are
// neither answered nor counted. Last, on a Q4
// with one dead link, 0000-0001, and one faulty node, 1111, it pins the
// answers the safe-bit rule must not give: 0000 is safe, own level 4,
// yet reaches the far end of its dead link only by C3's detour
// (Section 4.1); a pair from a node to itself is C1 at distance 0; and
// a faulty source is an error exit.
func TestSummariesObserveLikeSummary(t *testing.T) {
	for _, sc := range diffScenarios() {
		s := sc.set()
		live := Compute(s, Options{})
		for _, as := range []*Assignment{live, live.Detach()} {
			batched, single := obs.NewRegistry(), obs.NewRegistry()
			br := NewRouter(as, sc.tie).Observe(batched.RouteObserver())
			sr := NewRouter(as, sc.tie).Observe(single.RouteObserver())
			var pairs []Pair
			for _, p := range allPairs(s.Topology(), 1) {
				pairs = append(pairs, Pair{Src: p[0], Dst: p[1]})
			}
			left := len(pairs) - 3
			stop := func() bool {
				left--
				return left < 0
			}
			var got []Summary
			for lo, k := 0, 1; lo < len(pairs); lo, k = lo+k, 3*k {
				got = br.Summaries(pairs[lo:min(lo+k, len(pairs))], got, stop)
			}
			if len(got) != len(pairs)-3 {
				t.Fatalf("%s: %d answers before the stop, want %d", sc.name, len(got), len(pairs)-3)
			}
			for i, sum := range got {
				if want := sr.Summary(pairs[i].Src, pairs[i].Dst); sum != want {
					t.Fatalf("%s: pair %v: Summaries %+v, Summary %+v", sc.name, pairs[i], sum, want)
				}
			}
			if b, o := routeMetrics(t, batched), routeMetrics(t, single); b != o {
				t.Fatalf("%s: route metrics differ\nSummaries:\n%s\nSummary:\n%s", sc.name, b, o)
			}
		}
	}

	c := topo.MustCube(4)
	s := faults.NewSet(c)
	if err := s.FailLink(0b0000, 0b0001); err != nil {
		t.Fatal(err)
	}
	if err := s.FailNode(0b1111); err != nil {
		t.Fatal(err)
	}
	live := Compute(s, Options{})
	pairs := []Pair{{0b0000, 0b0001}, {0b0000, 0b0000}, {0b1111, 0b0011}}
	want := []Summary{
		{Condition: CondC3, Outcome: Suboptimal, Hamming: 1, Hops: 3},
		{Condition: CondC1, Outcome: Optimal},
		{Condition: CondNone, Outcome: Failure, Hamming: 2, Err: true},
	}
	for _, as := range []*Assignment{live, live.Detach()} {
		if !as.own.safe(0) || as.Level(0) != 0 {
			t.Fatalf("0000: own level %d, public level %d, want a safe N2 node", as.OwnLevel(0), as.Level(0))
		}
		rt := NewRouter(as, nil)
		got := rt.Summaries(pairs, nil, nil)
		for i, p := range pairs {
			if got[i] != want[i] || rt.Summary(p.Src, p.Dst) != want[i] || rt.Unicast(p.Src, p.Dst).Summary() != want[i] {
				t.Fatalf("pair %v: Summaries %+v, Summary %+v, Unicast %+v; want %+v",
					p, got[i], rt.Summary(p.Src, p.Dst), rt.Unicast(p.Src, p.Dst).Summary(), want[i])
			}
		}
	}
}

// routeMetrics renders the route_* lines of r's Prometheus exposition.
func routeMetrics(t *testing.T, r *obs.Registry) string {
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, line := range strings.Split(b.String(), "\n") {
		if strings.Contains(line, "route_") {
			out = append(out, line)
		}
	}
	if len(out) == 0 {
		t.Fatal("no route metrics exported")
	}
	return strings.Join(out, "\n")
}
