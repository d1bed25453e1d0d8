package safecube

import "testing"

// TestGHDistributedFacade runs the Fig. 5 cube through the
// goroutine-per-node engine: the levels match the sequential ones, and
// every route reports the GH distance (the number of differing
// coordinates), not the popcount of the two indexes.
func TestGHDistributedFacade(t *testing.T) {
	g := MustNewGeneralized(2, 3, 2)
	if err := g.FailNamed("011", "100", "111", "121"); err != nil {
		t.Fatal(err)
	}
	seq := g.ComputeLevels()
	d := g.Distributed()
	defer d.Close()
	d.RunGS()
	for a, lv := range d.Levels() {
		if lv != seq.Level(NodeID(a)) {
			t.Fatalf("distributed S(%s) = %d, sequential %d", g.Format(NodeID(a)), lv, seq.Level(NodeID(a)))
		}
	}
	s, dst := g.MustParse("010"), g.MustParse("101")
	if r := d.Unicast(s, dst); r.Outcome != Optimal || r.Hamming != 3 || r.Hops() != 3 {
		t.Errorf("distributed route: %v, H = %d, %d hops", r.Outcome, r.Hamming, r.Hops())
	}
	st, err := d.UnicastBatch([]TrafficPair{{s, dst}, {dst, s}})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range st.Routes {
		if r.Hamming != 3 || r.Hamming != g.Distance(r.Source, r.Dest) {
			t.Errorf("batch route %s: H = %d, want 3", r.PathString(g), r.Hamming)
		}
	}
	res, err := d.Broadcast(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Depth) != g.Nodes()-g.NodeFaults() {
		t.Errorf("distributed broadcast from a safe node covered %d of %d nodes", len(res.Depth), g.Nodes()-g.NodeFaults())
	}
}

// TestGHBroadcastBinaryOnly pins the sequential Broadcast's scope: its
// binomial tree is defined over Q_n, so it panics on a generalized cube.
func TestGHBroadcastBinaryOnly(t *testing.T) {
	g := MustNewGeneralized(2, 3, 2)
	defer func() {
		if recover() == nil {
			t.Error("Broadcast on a GH should panic")
		}
	}()
	g.Broadcast(0)
}

// TestStartUnicastOutOfRangeQnAndGH checks that an instrumented cube
// refuses a session from a source outside the topology, on either
// lattice, without reading that node's level.
func TestStartUnicastOutOfRangeQnAndGH(t *testing.T) {
	for _, c := range []*Cube{MustNew(4), MustNewGeneralized(2, 3, 2)} {
		reg := NewRegistry()
		reg.KeepTraces(2)
		c.Instrument(reg)
		src := NodeID(c.Nodes() + 1)
		if sess, cond, out := c.StartUnicast(src, 0); sess != nil || cond != CondNone || out != Failure {
			t.Errorf("%s: StartUnicast from %d = %v/%v/%v, want nil/none/failure", c, src, sess, cond, out)
		}
		if _, tr, _, out := c.StartUnicastTraced(src, 0); out != Failure || tr.Outcome != "failure" {
			t.Errorf("%s: traced start from %d = %v, trace outcome %q", c, src, out, tr.Outcome)
		}
		if cond, out := c.Feasibility(src, 0); cond != CondNone || out != Failure {
			t.Errorf("%s: Feasibility from %d = %v/%v, want none/failure", c, src, cond, out)
		}
	}
}
