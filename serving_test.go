package safecube

import (
	"context"
	"testing"
)

// TestServeFacadeCube checks the public Server wrapper end to end on
// the binary facade: parity with direct Unicast, batch order, fan-out
// indexing, async churn with Flush, and the re-exported metrics.
func TestServeFacadeCube(t *testing.T) {
	c := MustNew(5)
	if err := c.FailNodes(3, 17, 24); err != nil {
		t.Fatal(err)
	}
	if err := c.FailLink(0, 1); err != nil {
		t.Fatal(err)
	}
	reg := NewRegistry()
	srv, err := c.Serve(ServeOptions{Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ctx := context.Background()

	// Parity with the direct facade on the identical fault set.
	for s := 0; s < c.Nodes(); s++ {
		for d := 0; d < c.Nodes(); d++ {
			got, err := srv.UnicastCtx(ctx, NodeID(s), NodeID(d))
			if err != nil {
				t.Fatal(err)
			}
			want := c.Unicast(NodeID(s), NodeID(d))
			if got.Outcome != want.Outcome || got.Condition != want.Condition ||
				got.Hamming != want.Hamming || len(got.Path) != len(want.Path) {
				t.Fatalf("route %d->%d: server %+v, facade %+v", s, d, got, want)
			}
			for i := range got.Path {
				if got.Path[i] != want.Path[i] {
					t.Fatalf("route %d->%d path diverges at hop %d", s, d, i)
				}
			}
		}
	}

	// Batch answers in request order; fan-out indexed by destination.
	pairs := []TrafficPair{{0, 31}, {2, 9}, {31, 0}}
	routes, err := srv.BatchUnicastCtx(ctx, pairs)
	if err != nil {
		t.Fatal(err)
	}
	if len(routes) != len(pairs) {
		t.Fatalf("batch returned %d routes, want %d", len(routes), len(pairs))
	}
	for i, p := range pairs {
		if routes[i].Source != p.Src || routes[i].Dest != p.Dst {
			t.Fatalf("batch slot %d answered %d->%d, want %d->%d",
				i, routes[i].Source, routes[i].Dest, p.Src, p.Dst)
		}
	}
	all, err := srv.RouteAllCtx(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != c.Nodes() {
		t.Fatalf("RouteAll returned %d slots, want %d", len(all), c.Nodes())
	}
	if all[0] != nil {
		t.Fatal("RouteAll source slot not nil")
	}
	if all[9] == nil || all[9].Dest != 9 {
		t.Fatal("RouteAll slot 9 missing or misindexed")
	}

	// Churn is async but Flush-bounded, and the server's fault state is
	// decoupled from the originating cube's.
	gen := srv.Generation()
	if err := srv.RecoverNode(3); err != nil {
		t.Fatal(err)
	}
	srv.Flush()
	if srv.Generation() <= gen {
		t.Fatalf("generation did not advance past %d", gen)
	}
	if r, err := srv.UnicastCtx(ctx, 3, 0); err != nil || r.Outcome == Failure && c.Connected() {
		t.Fatalf("recovered node still unroutable: %+v, %v", r, err)
	}
	if !c.NodeFaulty(3) {
		t.Fatal("server churn leaked into the facade's fault set")
	}

	snap := reg.Snapshot()
	for _, name := range []string{
		MetricServeSnapshotGen, MetricServeSwapsTotal, MetricServeRoutesTotal,
		MetricServeBatchesTotal, MetricServeApplyTotal,
	} {
		if _, ok := snap.Counters[name]; !ok {
			if _, ok := snap.Gauges[name]; !ok {
				t.Fatalf("metric %q missing from registry snapshot", name)
			}
		}
	}

	srv.Close() // idempotent
	if err := srv.FailNode(1); err != ErrServerClosed {
		t.Fatalf("mutator after Close: got %v, want ErrServerClosed", err)
	}
}

// TestServeFacadeGeneralized checks that the same Server type serves
// the generalized facade (GNodeID and NodeID are one type).
func TestServeFacadeGeneralized(t *testing.T) {
	g, err := NewGeneralized(2, 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.FailNodes(5, 11); err != nil {
		t.Fatal(err)
	}
	srv, err := g.Serve(ServeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ctx := context.Background()

	for s := 0; s < g.Nodes(); s++ {
		for d := 0; d < g.Nodes(); d++ {
			got, err := srv.UnicastCtx(ctx, GNodeID(s), GNodeID(d))
			if err != nil {
				t.Fatal(err)
			}
			want := g.Unicast(GNodeID(s), GNodeID(d))
			if got.Outcome != want.Outcome || got.Hamming != want.Hamming ||
				len(got.Path) != len(want.Path) {
				t.Fatalf("route %d->%d: server %+v, facade %+v", s, d, got, want)
			}
		}
	}
	lv := g.ComputeLevels()
	for a := 0; a < g.Nodes(); a++ {
		if srv.Level(GNodeID(a)) != lv.Level(GNodeID(a)) {
			t.Fatalf("node %d: server level %d, facade level %d",
				a, srv.Level(GNodeID(a)), lv.Level(GNodeID(a)))
		}
	}
	r, err := srv.UnicastCtx(ctx, 0, 23)
	if err != nil {
		t.Fatal(err)
	}
	wc, wo := g.Feasibility(0, 23)
	if r.Condition != wc || r.Outcome != wo {
		t.Fatalf("feasibility mismatch: (%v,%v) vs (%v,%v)", r.Condition, r.Outcome, wc, wo)
	}
}
