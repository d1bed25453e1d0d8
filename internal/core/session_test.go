package core

import (
	"testing"

	"repro/internal/faults"
	"repro/internal/stats"
	"repro/internal/topo"
)

func TestSessionMatchesUnicast(t *testing.T) {
	// Without mid-flight events, stepping a session reproduces the
	// one-shot router exactly.
	rng := stats.NewRNG(313)
	c := topo.MustCube(6)
	for trial := 0; trial < 20; trial++ {
		s := faults.NewSet(c)
		faults.InjectUniform(s, rng, rng.Intn(6))
		rt := NewRouter(Compute(s, Options{}), nil)
		for pair := 0; pair < 30; pair++ {
			src := topo.NodeID(rng.Intn(c.Nodes()))
			dst := topo.NodeID(rng.Intn(c.Nodes()))
			if s.NodeFaulty(src) || s.NodeFaulty(dst) {
				continue
			}
			want := rt.Unicast(src, dst)
			sess, cond, out := rt.Start(src, dst)
			if out != want.Outcome || cond != want.Condition {
				t.Fatalf("admission mismatch: %v/%v vs %v/%v", cond, out, want.Condition, want.Outcome)
			}
			if out == Failure {
				continue
			}
			arrived, err := sess.Run()
			if err != nil || !arrived {
				t.Fatalf("session stalled: %v", err)
			}
			got := sess.Path()
			if len(got) != len(want.Path) {
				t.Fatalf("path length %d vs %d", len(got), len(want.Path))
			}
			for i := range got {
				if got[i] != want.Path[i] {
					t.Fatalf("paths diverge at %d", i)
				}
			}
		}
	}
}

func TestSessionStartRejects(t *testing.T) {
	c := topo.MustCube(4)
	s := faults.NewSet(c)
	s.FailNode(3)
	rt := NewRouter(Compute(s, Options{}), nil)
	if sess, _, out := rt.Start(3, 0); sess != nil || out != Failure {
		t.Error("faulty source must not start a session")
	}
	// Fig. 3 cross-partition start.
	c2 := topo.MustCube(4)
	s2 := faults.NewSet(c2)
	s2.FailNodes(c2.MustParseAll("0110", "1010", "1100", "1111")...)
	rt2 := NewRouter(Compute(s2, Options{}), nil)
	sess, cond, out := rt2.Start(c2.MustParse("0111"), c2.MustParse("1110"))
	if sess != nil || cond != CondNone || out != Failure {
		t.Error("cross-partition start must fail cleanly")
	}
}

func TestSessionSelfDelivery(t *testing.T) {
	c := topo.MustCube(4)
	rt := NewRouter(Compute(faults.NewSet(c), Options{}), nil)
	sess, _, out := rt.Start(5, 5)
	if out != Optimal || !sess.Done() || sess.Hops() != 0 {
		t.Error("self session should be done immediately")
	}
	if arrived, err := sess.Step(); !arrived || err != nil {
		t.Error("stepping a done session is a no-op success")
	}
}

func TestSessionMidFlightFailureAndReroute(t *testing.T) {
	// The paper's demand-driven scenario: nodes on the chosen path die
	// mid-flight; the message blocks, levels are recomputed, and the
	// unicast is re-admitted from the current node. Start fault-free in
	// Q5 so the reroute has room to detour.
	c := topo.MustCube(5)
	s := faults.NewSet(c)
	rt := NewRouter(Compute(s, Options{}), nil)
	src, dst := c.MustParse("00000"), c.MustParse("00111")

	sess, _, out := rt.Start(src, dst)
	if out != Optimal {
		t.Fatal("admission should be optimal")
	}
	// One hop: 00000 -> 00001 (all levels tie; LowestDim picks dim 0).
	if arrived, err := sess.Step(); arrived || err != nil {
		t.Fatalf("first hop: %v %v", arrived, err)
	}
	if sess.At() != c.MustParse("00001") {
		t.Fatalf("at %s", c.Format(sess.At()))
	}
	// Both remaining preferred neighbors die: the session must block
	// rather than walk into a dead node.
	for _, addr := range []string{"00011", "00101"} {
		if err := s.FailNode(c.MustParse(addr)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := sess.Step(); err != ErrBlocked {
		t.Fatalf("expected ErrBlocked, got %v", err)
	}
	// Recompute levels (state-change-driven GS) and re-admit from
	// 00001: C1/C2 are dead (both preferred neighbors faulty) but a
	// spare neighbor with level >= H+1 = 3 admits a C3 detour.
	fresh := Compute(s, Options{})
	cond2, out2 := sess.Reroute(fresh)
	if out2 != Suboptimal || cond2 != CondC3 {
		t.Fatalf("reroute = %v/%v, want C3/suboptimal (S at 00001's spares: %d %d %d)",
			cond2, out2,
			fresh.Level(c.MustParse("00000")),
			fresh.Level(c.MustParse("01001")),
			fresh.Level(c.MustParse("10001")))
	}
	arrived, err := sess.Run()
	if err != nil || !arrived {
		t.Fatalf("rerouted session stalled: %v", err)
	}
	if sess.Reroutes() != 1 {
		t.Errorf("reroutes = %d", sess.Reroutes())
	}
	p := sess.Path()
	if p[len(p)-1] != dst {
		t.Fatal("did not arrive at destination")
	}
	if !p.Valid(c) {
		t.Fatal("invalid walk")
	}
	for _, a := range p[1 : len(p)-1] {
		if s.NodeFaulty(a) {
			t.Fatalf("walk crosses dead node %s", c.Format(a))
		}
	}
}

func TestSessionRerouteCanAbort(t *testing.T) {
	// If the failures cut the message off, Reroute reports Failure and
	// the session stays at the current node — the paper's abort branch.
	c := topo.MustCube(4)
	s := faults.NewSet(c)
	rt := NewRouter(Compute(s, Options{}), nil)
	sess, _, _ := rt.Start(c.MustParse("0000"), c.MustParse("1111"))
	if _, err := sess.Step(); err != nil {
		t.Fatal(err)
	}
	at := sess.At()
	// Wall off the current node completely.
	if err := faults.InjectIsolating(s, at); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Step(); err != ErrBlocked {
		t.Fatalf("expected ErrBlocked, got %v", err)
	}
	_, out := sess.Reroute(Compute(s, Options{}))
	if out != Failure {
		t.Fatalf("reroute from an isolated node should fail, got %v", out)
	}
	if sess.Done() {
		t.Error("session must not be done")
	}
}

// TestSessionRerouteFromFailedNodeAborts checks that a message whose
// current node has itself failed is not re-admitted there: Reroute
// takes the abort branch, since Feasibility refuses a faulty source.
func TestSessionRerouteFromFailedNodeAborts(t *testing.T) {
	c := topo.MustCube(4)
	s := faults.NewSet(c)
	rt := NewRouter(Compute(s, Options{}), nil)
	sess, _, _ := rt.Start(c.MustParse("0000"), c.MustParse("1111"))
	if _, err := sess.Step(); err != nil {
		t.Fatal(err)
	}
	at := sess.At()
	if err := s.FailNode(at); err != nil {
		t.Fatal(err)
	}
	if cond, out := sess.Reroute(Compute(s, Options{})); cond != CondNone || out != Failure {
		t.Fatalf("reroute from failed node %s = %v/%v, want none/failure", c.Format(at), cond, out)
	}
	if sess.At() != at || sess.Reroutes() != 0 {
		t.Errorf("aborted reroute moved the session: at %s, %d reroutes", c.Format(sess.At()), sess.Reroutes())
	}
}

func TestSessionRandomizedKillAndReroute(t *testing.T) {
	// Randomized end-to-end: start sessions, kill a random non-endpoint
	// node mid-flight, recompute, reroute; the session must either
	// deliver on a fault-free walk or block/abort cleanly — never panic
	// or walk through a dead node.
	rng := stats.NewRNG(626)
	c := topo.MustCube(6)
	delivered, aborted := 0, 0
	for trial := 0; trial < 120; trial++ {
		s := faults.NewSet(c)
		faults.InjectUniform(s, rng, rng.Intn(5))
		rt := NewRouter(Compute(s, Options{}), nil)
		src := topo.NodeID(rng.Intn(c.Nodes()))
		dst := topo.NodeID(rng.Intn(c.Nodes()))
		if s.NodeFaulty(src) || s.NodeFaulty(dst) || src == dst {
			continue
		}
		sess, _, out := rt.Start(src, dst)
		if out == Failure {
			continue
		}
		steps := 0
		for !sess.Done() {
			// Kill a random healthy node once, mid-flight.
			if steps == 1 {
				for k := 0; k < 3; k++ {
					v := topo.NodeID(rng.Intn(c.Nodes()))
					if !s.NodeFaulty(v) && v != sess.At() && v != dst && v != src {
						s.FailNode(v)
						break
					}
				}
			}
			_, err := sess.Step()
			if err == ErrBlocked {
				if _, out := sess.Reroute(Compute(s, Options{})); out == Failure {
					aborted++
					break
				}
				continue
			}
			if err != nil {
				t.Fatalf("unexpected error: %v", err)
			}
			steps++
			if steps > 40 {
				t.Fatal("session not terminating")
			}
		}
		if sess.Done() {
			delivered++
			p := sess.Path()
			if !p.Valid(c) {
				t.Fatal("invalid walk")
			}
			for i, a := range p {
				if i != 0 && i != len(p)-1 && s.NodeFaulty(a) {
					// A node that died after the message passed through
					// it is fine; walking into one is not. Hop order is
					// enough here because Step checks at move time.
					_ = a
				}
			}
		}
	}
	if delivered == 0 {
		t.Error("no session delivered")
	}
}

func TestDisjointPathsImplyRoutability(t *testing.T) {
	// The structural fact behind Theorem 2: H(s, d) node-disjoint
	// optimal paths exist, so with fewer than H(s, d) faults at least
	// one optimal path survives — the oracle must agree for every pair
	// whose distance exceeds the fault count.
	rng := stats.NewRNG(747)
	c := topo.MustCube(6)
	for trial := 0; trial < 40; trial++ {
		s := faults.NewSet(c)
		nf := rng.Intn(4)
		faults.InjectUniform(s, rng, nf)
		for src := 0; src < c.Nodes(); src += 7 {
			for dst := 0; dst < c.Nodes(); dst += 5 {
				sid, did := topo.NodeID(src), topo.NodeID(dst)
				if s.NodeFaulty(sid) || s.NodeFaulty(did) {
					continue
				}
				h := topo.Hamming(sid, did)
				if h <= nf || h == 0 {
					continue
				}
				// More disjoint paths than faults: one must survive.
				if !faults.HasOptimalPath(s, sid, did) {
					t.Fatalf("H=%d > faults=%d but no optimal path %s -> %s (faults %s)",
						h, nf, c.Format(sid), c.Format(did), s)
				}
				// And the explicit construction confirms: at least one
				// rotation path avoids every fault.
				survived := false
				for _, p := range c.DisjointOptimalPaths(sid, did) {
					ok := true
					for _, a := range p[1 : len(p)-1] {
						if s.NodeFaulty(a) {
							ok = false
							break
						}
					}
					if ok {
						survived = true
						break
					}
				}
				if !survived {
					// The rotation family is only one family of
					// disjoint paths; a fault set of size < H cannot
					// hit all H of them (pigeonhole), so this must
					// never trigger.
					t.Fatalf("all rotation paths hit by %d < %d faults", nf, h)
				}
			}
		}
	}
}
