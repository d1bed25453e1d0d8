package safecube

import (
	"strings"
	"testing"
)

// TestGHInstrumentedUnicast is the tentpole's acceptance check: a
// generalized hypercube instrumented with the same Registry as a binary
// Cube records route traces, admission/outcome counters, GS run
// telemetry, and level-cache hits — none of which existed on the old
// ghcube-backed facade.
func TestGHInstrumentedUnicast(t *testing.T) {
	g := MustNewGeneralized(2, 3, 2)
	reg := NewRegistry()
	reg.KeepTraces(4)
	g.Instrument(reg)
	if g.Registry() != reg {
		t.Fatal("Registry() should return the attached registry")
	}
	if err := g.FailNamed("011", "100", "111", "121"); err != nil {
		t.Fatal(err)
	}

	s, d := g.MustParse("010"), g.MustParse("101")
	r, tr := g.UnicastTraced(s, d)
	if r.Outcome != Optimal || r.Hops() != 3 {
		t.Fatalf("route = %v/%d hops, want optimal/3", r.Outcome, r.Hops())
	}
	if tr == nil || tr.Source != int(s) || tr.Dest != int(d) || tr.Hamming != 3 {
		t.Fatalf("trace header = %+v", tr)
	}
	if len(tr.Events) == 0 || tr.Events[0].Kind != EvAdmit || tr.Events[len(tr.Events)-1].Kind != EvDone {
		t.Fatalf("trace should run admit..done, got %v", kinds(tr))
	}
	if tr.Outcome != "optimal" || tr.PathLen != 3 || tr.Stretch != 0 {
		t.Errorf("trace accounting = %+v", tr)
	}
	// Format must render GH digit strings via the topology, not raw ints.
	if s := tr.Format(func(a int) string { return g.Format(GNodeID(a)) }); !strings.Contains(s, "010") {
		t.Errorf("formatted trace missing GH address:\n%s", s)
	}

	// A second unicast reuses the cached assignment.
	if r := g.Unicast(s, d); r.Outcome != Optimal {
		t.Fatalf("second unicast = %v", r.Outcome)
	}
	for name, want := range map[string]int64{
		MetricUnicastsTotal:     2,
		MetricOutcomeOptimal:    2,
		MetricHopsTotal:         6,
		MetricGSRunsTotal:       1,
		MetricLevelsCacheMisses: 1,
		MetricLevelsCacheHits:   1,
	} {
		if got := counter(t, reg, name); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	gs := reg.LastGS()
	if gs == nil || gs.Kind != "sequential" || gs.Dim != 3 || gs.NodeFaults != 4 {
		t.Fatalf("GS trace = %+v", gs)
	}
	if gs.Rounds != g.ComputeLevels().Rounds() {
		t.Errorf("GS trace rounds %d != assignment rounds %d", gs.Rounds, g.ComputeLevels().Rounds())
	}
}

// TestGHFailLinkRouting checks Section 4.1 link faults on a generalized
// hypercube: both ends of a faulty link expose safety level 0 to their
// neighbors while routing with their own (higher) level, and a unicast
// across the dead link detours through a spare dimension at the paper's
// two extra hops.
func TestGHFailLinkRouting(t *testing.T) {
	g := MustNewGeneralized(3, 3)
	a, b := g.MustParse("00"), g.MustParse("01")
	if err := g.FailLink(a, b); err != nil {
		t.Fatal(err)
	}
	if !g.LinkFaulty(a, b) || !g.LinkFaulty(b, a) {
		t.Fatal("link should be faulty in both directions")
	}
	if g.LinkFaults() != 1 || g.NodeFaults() != 0 {
		t.Fatalf("faults = %d links %d nodes", g.LinkFaults(), g.NodeFaults())
	}

	lv := g.ComputeLevels()
	if err := lv.Verify(); err != nil {
		t.Error(err)
	}
	for _, end := range []GNodeID{a, b} {
		if lv.Level(end) != 0 {
			t.Errorf("public level of %s = %d, want 0", g.Format(end), lv.Level(end))
		}
		if lv.OwnLevel(end) == 0 {
			t.Errorf("own level of %s should stay positive", g.Format(end))
		}
	}

	r := g.Unicast(a, b)
	if r.Err != nil {
		t.Fatal(r.Err)
	}
	if r.Outcome != Suboptimal || r.Condition != CondC3 || r.Hops() != 3 {
		t.Fatalf("route = %v/%v/%d hops, want suboptimal/C3/3", r.Outcome, r.Condition, r.Hops())
	}
	for i := 1; i < len(r.Path); i++ {
		if g.LinkFaulty(r.Path[i-1], r.Path[i]) {
			t.Fatalf("path %s crosses the dead link", r.PathString(g))
		}
	}
}

// TestGHRecoverNode checks the repair half of the Section 2.2 dynamic
// fault model on a GH cube: recovering a node invalidates the cached
// assignment and restores every node to the safe level.
func TestGHRecoverNode(t *testing.T) {
	g := MustNewGeneralized(3, 3)
	center := g.MustParse("11")
	if err := g.FailNode(center); err != nil {
		t.Fatal(err)
	}
	// Definition 4 takes the minimum over each dimension's siblings, so a
	// lone fault in a radix-3 cube lowers no healthy node — but the
	// faulty node itself reads 0 and leaves the safe set.
	if lv := g.ComputeLevels(); lv.Level(center) != 0 || len(lv.SafeSet()) != g.Nodes()-1 {
		t.Fatalf("faulty level = %d, safe set = %d", lv.Level(center), len(lv.SafeSet()))
	}
	if err := g.RecoverNode(center); err != nil {
		t.Fatal(err)
	}
	if g.NodeFaulty(center) || g.NodeFaults() != 0 {
		t.Fatal("node should be healthy after recovery")
	}
	lv := g.ComputeLevels()
	if len(lv.SafeSet()) != g.Nodes() {
		t.Fatalf("fault-free safe set = %d, want %d", len(lv.SafeSet()), g.Nodes())
	}
	if lv.Rounds() != 0 {
		t.Errorf("fault-free GS rounds = %d, want 0", lv.Rounds())
	}
	if err := g.RecoverNode(center); err != nil {
		t.Errorf("recovering a healthy node is an idempotent no-op, got %v", err)
	}
	if err := g.RecoverNode(GNodeID(99)); err == nil {
		t.Error("recovering an out-of-range node should error")
	}
}

// TestGHSessionReroute drives a step-wise GH unicast through a
// mid-flight fault: the session blocks, levels are recomputed, and the
// re-admitted message still arrives — the binary RouteSession feature
// set carried to generalized cubes by the shared core.
func TestGHSessionReroute(t *testing.T) {
	g := MustNewGeneralized(3, 3, 3)
	s, d := g.MustParse("000"), g.MustParse("111")

	sess, cond, out := g.StartUnicast(s, d)
	if sess == nil || cond != CondC1 || out != Optimal {
		t.Fatalf("admission = %v/%v", cond, out)
	}
	if _, err := sess.Step(); err != nil {
		t.Fatal(err)
	}
	// Kill every neighbor that advances toward the destination from the
	// current node; the next Step must report the blockage.
	at := sess.At()
	for i := 0; i < g.Dim(); i++ {
		if ci, di := g.t.Coord(at, i), g.t.Coord(d, i); ci != di {
			if next := g.t.Toward(at, d, i); next != d {
				if err := g.FailNode(next); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	if _, err := sess.Step(); err != ErrBlocked {
		t.Fatalf("want ErrBlocked, got %v", err)
	}
	if cond, out := sess.Reroute(); out == Failure {
		t.Fatalf("reroute failed: %v/%v", cond, out)
	}
	if arrived, err := sess.Run(); !arrived || err != nil {
		t.Fatalf("run: %v %v", arrived, err)
	}
	if !sess.Done() || sess.At() != d || sess.Reroutes() != 1 {
		t.Fatalf("session end state: at %s, reroutes %d", g.Format(sess.At()), sess.Reroutes())
	}
	path := sess.Path()
	if path[0] != s || path[len(path)-1] != d || sess.Hops() != len(path)-1 {
		t.Fatalf("path = %v", path)
	}
	for i := 1; i < len(path); i++ {
		if !g.t.Adjacent(path[i-1], path[i]) {
			t.Fatalf("non-adjacent hop %s -> %s", g.Format(path[i-1]), g.Format(path[i]))
		}
	}
}
