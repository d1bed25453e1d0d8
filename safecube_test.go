package safecube

import (
	"strings"
	"testing"
)

func fig1Cube(t testing.TB) *Cube {
	t.Helper()
	c := MustNew(4)
	if err := c.FailNamed("0011", "0100", "0110", "1001"); err != nil {
		t.Fatal(err)
	}
	return c
}

func TestNewValidation(t *testing.T) {
	if _, err := New(0); err == nil {
		t.Error("New(0) should fail")
	}
	if _, err := New(MaxDim + 1); err == nil {
		t.Error("New(MaxDim+1) should fail")
	}
	c, err := New(4)
	if err != nil {
		t.Fatal(err)
	}
	if c.Dim() != 4 || c.Nodes() != 16 {
		t.Error("dimensions wrong")
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustNew(0) should panic")
		}
	}()
	MustNew(0)
}

func TestQuickstartFlow(t *testing.T) {
	c := fig1Cube(t)
	lv := c.ComputeLevels()
	if lv.Rounds() != 2 {
		t.Errorf("rounds = %d, want 2", lv.Rounds())
	}
	if got := lv.Level(c.MustParse("0101")); got != 2 {
		t.Errorf("S(0101) = %d, want 2", got)
	}
	if err := lv.Verify(); err != nil {
		t.Error(err)
	}
	r := c.Unicast(c.MustParse("1110"), c.MustParse("0001"))
	if r.Outcome != Optimal || r.Condition != CondC1 {
		t.Fatalf("outcome %v condition %v", r.Outcome, r.Condition)
	}
	if got := r.PathString(c); got != "1110 -> 1111 -> 1101 -> 0101 -> 0001" {
		t.Errorf("path = %s", got)
	}
	if r.Hops() != 4 || r.Hamming != 4 {
		t.Errorf("hops %d hamming %d", r.Hops(), r.Hamming)
	}
}

func TestLevelsCaching(t *testing.T) {
	c := fig1Cube(t)
	l1 := c.ComputeLevels()
	l2 := c.ComputeLevels()
	if l1.as != l2.as {
		t.Error("levels should be cached between identical calls")
	}
	if err := c.FailNode(c.MustParse("1111")); err != nil {
		t.Fatal(err)
	}
	l3 := c.ComputeLevels()
	if l3.as == l1.as {
		t.Error("fault mutation must invalidate the cache")
	}
}

func TestFailRecoverRoundTrip(t *testing.T) {
	c := MustNew(4)
	a := c.MustParse("0101")
	if err := c.FailNode(a); err != nil {
		t.Fatal(err)
	}
	if !c.NodeFaulty(a) || c.NodeFaults() != 1 {
		t.Error("fault not recorded")
	}
	if err := c.RecoverNode(a); err != nil {
		t.Fatal(err)
	}
	if c.NodeFaulty(a) {
		t.Error("recovery not recorded")
	}
	lv := c.ComputeLevels()
	if !lv.Safe(a) {
		t.Error("recovered fault-free cube should be all safe")
	}
}

func TestFailNamedErrors(t *testing.T) {
	c := MustNew(4)
	if err := c.FailNamed("01"); err == nil {
		t.Error("short address should error")
	}
	if err := c.FailNamed("0102"); err == nil {
		t.Error("non-binary address should error")
	}
}

func TestInjectRandomFaultsDeterministic(t *testing.T) {
	a, b := MustNew(6), MustNew(6)
	if err := a.InjectRandomFaults(99, 10); err != nil {
		t.Fatal(err)
	}
	if err := b.InjectRandomFaults(99, 10); err != nil {
		t.Fatal(err)
	}
	fa, fb := a.FaultyNodes(), b.FaultyNodes()
	if len(fa) != 10 || len(fb) != 10 {
		t.Fatal("wrong fault count")
	}
	for i := range fa {
		if fa[i] != fb[i] {
			t.Fatal("same seed produced different fault sets")
		}
	}
}

func TestConnectedAndDisconnected(t *testing.T) {
	c := MustNew(4)
	if !c.Connected() {
		t.Error("fault-free cube is connected")
	}
	if err := c.FailNamed("0110", "1010", "1100", "1111"); err != nil {
		t.Fatal(err)
	}
	if c.Connected() {
		t.Error("Fig. 3 cube is disconnected")
	}
	// Cross-partition unicast aborts cleanly at the source.
	r := c.Unicast(c.MustParse("0111"), c.MustParse("1110"))
	if r.Outcome != Failure || r.Err != nil {
		t.Errorf("outcome %v err %v, want clean failure", r.Outcome, r.Err)
	}
	cond, out := c.Feasibility(c.MustParse("0111"), c.MustParse("1110"))
	if cond != CondNone || out != Failure {
		t.Errorf("feasibility %v/%v", cond, out)
	}
}

func TestOptimalPathExists(t *testing.T) {
	c := fig1Cube(t)
	if !c.OptimalPathExists(c.MustParse("1110"), c.MustParse("0001")) {
		t.Error("paper example path should exist")
	}
	d := MustNew(4)
	d.FailNamed("0001", "0010")
	if d.OptimalPathExists(d.MustParse("0000"), d.MustParse("0011")) {
		t.Error("blocked pair should have no optimal path")
	}
}

func TestLinkFaultFlow(t *testing.T) {
	c := MustNew(4)
	if err := c.FailNamed("0000", "0100", "1100", "1110"); err != nil {
		t.Fatal(err)
	}
	if err := c.FailLink(c.MustParse("1000"), c.MustParse("1001")); err != nil {
		t.Fatal(err)
	}
	lv := c.ComputeLevels()
	if lv.Level(c.MustParse("1000")) != 0 || lv.OwnLevel(c.MustParse("1000")) != 1 {
		t.Error("N2 levels wrong for 1000")
	}
	if lv.OwnLevel(c.MustParse("1001")) != 2 {
		t.Error("own level of 1001 should be 2")
	}
	r := c.Unicast(c.MustParse("1101"), c.MustParse("1000"))
	if r.Outcome != Suboptimal {
		t.Fatalf("outcome = %v", r.Outcome)
	}
	if got := r.PathString(c); got != "1101 -> 1111 -> 1011 -> 1010 -> 1000" {
		t.Errorf("path = %s", got)
	}
	if err := c.FailLink(c.MustParse("0000"), c.MustParse("0011")); err == nil {
		t.Error("non-adjacent link should error")
	}
}

func TestCubeString(t *testing.T) {
	c := fig1Cube(t)
	s := c.String()
	if !strings.Contains(s, "Q4") || !strings.Contains(s, "4 node faults") {
		t.Errorf("String = %q", s)
	}
}

func TestRouteHopsEmpty(t *testing.T) {
	r := &Route{}
	if r.Hops() != 0 {
		t.Error("empty route has 0 hops")
	}
}

func TestHammingExported(t *testing.T) {
	if Hamming(0b1110, 0b0001) != 4 {
		t.Error("Hamming wrong")
	}
}

func TestDistributedFacade(t *testing.T) {
	c := fig1Cube(t)
	d := c.Distributed()
	defer d.Close()
	d.RunGS()
	if d.StableRound() != 2 {
		t.Errorf("stable round = %d, want 2", d.StableRound())
	}
	lv := d.Levels()
	if lv[c.MustParse("0101")] != 2 {
		t.Errorf("distributed S(0101) = %d", lv[c.MustParse("0101")])
	}
	if d.MessagesSent() == 0 {
		t.Error("GS should send messages")
	}
	r := d.Unicast(c.MustParse("1110"), c.MustParse("0001"))
	if r.Outcome != Optimal || r.PathString(c) != "1110 -> 1111 -> 1101 -> 0101 -> 0001" {
		t.Errorf("distributed route: %v %s", r.Outcome, r.PathString(c))
	}
	// Kill a node, recompute, observe levels drop.
	if err := d.KillNode(c.MustParse("1111")); err != nil {
		t.Fatal(err)
	}
	d.RunGS()
	lv2 := d.Levels()
	if lv2[c.MustParse("1111")] != 0 {
		t.Error("killed node should be level 0")
	}
	if lv2[c.MustParse("1110")] >= lv[c.MustParse("1110")] {
		t.Error("neighbor level should drop after kill")
	}
}

func TestDistributedRunGSRounds(t *testing.T) {
	c := fig1Cube(t)
	d := c.Distributed()
	defer d.Close()
	d.RunGSRounds(1)
	full := MustNew(4)
	full.FailNamed("0011", "0100", "0110", "1001")
	exact := full.ComputeLevels()
	truncated := d.Levels()
	// One round is not enough for the 2-safe nodes.
	if truncated[c.MustParse("0101")] == exact.Level(c.MustParse("0101")) {
		t.Error("1-round GS should still be over-optimistic at 0101")
	}
}

func TestGeneralizedFacade(t *testing.T) {
	g := MustNewGeneralized(2, 3, 2)
	if g.Dim() != 3 || g.Nodes() != 12 {
		t.Fatal("shape wrong")
	}
	if err := g.FailNamed("011", "100", "111", "121"); err != nil {
		t.Fatal(err)
	}
	lv := g.ComputeLevels()
	if err := lv.Verify(); err != nil {
		t.Error(err)
	}
	if got := lv.Level(g.MustParse("110")); got != 1 {
		t.Errorf("S(110) = %d, want 1", got)
	}
	if len(lv.SafeSet()) != 4 {
		t.Errorf("safe set = %d, want 4", len(lv.SafeSet()))
	}
	r := g.Unicast(g.MustParse("010"), g.MustParse("101"))
	if r.Outcome != Optimal {
		t.Fatalf("outcome = %v", r.Outcome)
	}
	if got := r.PathString(g); got != "010 -> 000 -> 001 -> 101" {
		t.Errorf("path = %s", got)
	}
	if r.Hops() != 3 || r.Hamming != 3 {
		t.Error("distance bookkeeping wrong")
	}
	cond, out := g.Feasibility(g.MustParse("010"), g.MustParse("101"))
	if cond != CondC1 || out != Optimal {
		t.Errorf("feasibility %v/%v", cond, out)
	}
}

func TestGeneralizedValidation(t *testing.T) {
	if _, err := NewGeneralized(); err == nil {
		t.Error("no dimensions should fail")
	}
	if _, err := NewGeneralized(2, 1); err == nil {
		t.Error("radix 1 should fail")
	}
	defer func() {
		if recover() == nil {
			t.Error("MustNewGeneralized(1) should panic")
		}
	}()
	MustNewGeneralized(1)
}

func TestGeneralizedInjectAndDistance(t *testing.T) {
	g := MustNewGeneralized(3, 3, 3)
	if err := g.InjectRandomFaults(7, 5); err != nil {
		t.Fatal(err)
	}
	n := 0
	for a := 0; a < g.Nodes(); a++ {
		if g.NodeFaulty(GNodeID(a)) {
			n++
		}
	}
	if n != 5 {
		t.Errorf("faults = %d", n)
	}
	if g.Distance(g.MustParse("000"), g.MustParse("222")) != 3 {
		t.Error("distance wrong")
	}
}

func TestDistributedBatchFacade(t *testing.T) {
	c := fig1Cube(t)
	d := c.Distributed()
	defer d.Close()
	d.RunGS()
	if d.MaxBatch() < 10 {
		t.Fatalf("MaxBatch = %d", d.MaxBatch())
	}
	pairs := []TrafficPair{
		{c.MustParse("1110"), c.MustParse("0001")},
		{c.MustParse("0001"), c.MustParse("1100")},
	}
	st, err := d.UnicastBatch(pairs)
	if err != nil {
		t.Fatal(err)
	}
	if st.Delivered != 2 || st.TotalHops != 7 {
		t.Errorf("delivered %d hops %d", st.Delivered, st.TotalHops)
	}
	if got := st.Routes[0].PathString(c); got != "1110 -> 1111 -> 1101 -> 0101 -> 0001" {
		t.Errorf("batch route 0 = %s", got)
	}
	if st.MaxNodeTransit < 1 {
		t.Error("transit should be positive")
	}
}

func TestRouteSessionFacade(t *testing.T) {
	c := MustNew(5)
	sess, cond, out := c.StartUnicast(c.MustParse("00000"), c.MustParse("00111"))
	if out != Optimal || cond != CondC1 {
		t.Fatalf("admission %v/%v", cond, out)
	}
	if _, err := sess.Step(); err != nil {
		t.Fatal(err)
	}
	c.FailNamed("00011", "00101")
	if _, err := sess.Step(); err != ErrBlocked {
		t.Fatalf("want ErrBlocked, got %v", err)
	}
	if _, out := sess.Reroute(); out != Suboptimal {
		t.Fatalf("reroute outcome %v", out)
	}
	if arrived, err := sess.Run(); !arrived || err != nil {
		t.Fatalf("run: %v %v", arrived, err)
	}
	if sess.Reroutes() != 1 || !sess.Done() {
		t.Error("session accounting wrong")
	}
	if sess.Path()[len(sess.Path())-1] != c.MustParse("00111") {
		t.Error("wrong destination")
	}
	// Failure admission returns nil session.
	d := MustNew(4)
	d.FailNamed("0110", "1010", "1100", "1111")
	if s2, _, out := d.StartUnicast(d.MustParse("0111"), d.MustParse("1110")); s2 != nil || out != Failure {
		t.Error("cross-partition start should fail with nil session")
	}
}

func TestBroadcastFacade(t *testing.T) {
	c := fig1Cube(t)
	res := c.Broadcast(c.MustParse("1110"))
	if len(res.Depth) != 12 || !res.Covered() {
		t.Errorf("broadcast covered %d, missed %v", len(res.Depth), res.Missed)
	}
	if res.Rounds < 1 || res.Messages < 11 {
		t.Errorf("rounds %d messages %d", res.Rounds, res.Messages)
	}
}

func TestDistributedBroadcastFacade(t *testing.T) {
	c := fig1Cube(t)
	d := c.Distributed()
	defer d.Close()
	d.RunGS()
	res, err := d.Broadcast(c.MustParse("1110"))
	if err != nil {
		t.Fatal(err)
	}
	// The distributed tree must match the sequential one.
	seq := c.Broadcast(c.MustParse("1110"))
	if len(res.Depth) != len(seq.Depth) || res.Messages != seq.Messages {
		t.Errorf("distributed %d/%d vs sequential %d/%d",
			len(res.Depth), res.Messages, len(seq.Depth), seq.Messages)
	}
	if _, err := d.Broadcast(c.MustParse("0011")); err == nil {
		t.Error("faulty source should error")
	}
}

func TestFacadeSmallSurface(t *testing.T) {
	c := fig1Cube(t)
	if got := c.Format(c.MustParse("0101")); got != "0101" {
		t.Errorf("Format = %q", got)
	}
	if err := c.FailNodes(c.MustParse("1111")); err != nil {
		t.Fatal(err)
	}
	lv := c.ComputeLevels()
	want := map[NodeID]bool{}
	for _, a := range lv.SafeSet() {
		want[a] = true
		if !lv.Safe(a) {
			t.Error("SafeSet and Safe disagree")
		}
	}
	// Generalized small surface.
	g := MustNewGeneralized(2, 3, 2)
	if got := g.Format(g.MustParse("021")); got != "021" {
		t.Errorf("GH Format = %q", got)
	}
	if !g.Connected() {
		t.Error("fault-free GH connected")
	}
	glv := g.ComputeLevels()
	if glv.Rounds() != 0 {
		t.Errorf("fault-free GH rounds = %d", glv.Rounds())
	}
	if err := g.FailNamed("09"); err == nil {
		t.Error("bad GH address should error")
	}
	if err := g.FailNamed("011", "011"); err != nil {
		t.Error("idempotent refail should not error")
	}
}

func TestDistributedAsyncFacade(t *testing.T) {
	c := fig1Cube(t)
	d := c.Distributed()
	defer d.Close()
	d.RunGSAsync()
	if d.Updates() == 0 {
		t.Error("Fig. 1 async GS should record level changes")
	}
	lv := d.Levels()
	own := d.OwnLevels()
	seq := c.ComputeLevels()
	for a := 0; a < c.Nodes(); a++ {
		if lv[a] != seq.Level(NodeID(a)) || own[a] != seq.OwnLevel(NodeID(a)) {
			t.Fatalf("async facade levels diverge at %d", a)
		}
	}
	// Session At() accessor.
	sess, _, _ := c.StartUnicast(c.MustParse("1110"), c.MustParse("0001"))
	sess.Step()
	if sess.At() != c.MustParse("1111") {
		t.Errorf("At = %s", c.Format(sess.At()))
	}
}
