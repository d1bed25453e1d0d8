package core

import (
	"testing"

	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/stats"
	"repro/internal/topo"
)

// routeRing returns a router over a uniform fault set of Q_n and a ring
// of random pairs of distinct nonfaulty nodes, the shape of the q20-batch
// benchmark workload.
func routeRing(tb testing.TB, n, nfaults, pairs int, seed uint64) (*Router, [][2]topo.NodeID) {
	tb.Helper()
	c := topo.MustCube(n)
	set := faults.NewSet(c)
	rng := stats.NewRNG(seed)
	if err := faults.InjectUniform(set, rng, nfaults); err != nil {
		tb.Fatal(err)
	}
	ring := make([][2]topo.NodeID, 0, pairs)
	for len(ring) < pairs {
		s, d := topo.NodeID(rng.Intn(c.Nodes())), topo.NodeID(rng.Intn(c.Nodes()))
		if s != d && !set.NodeFaulty(s) && !set.NodeFaulty(d) {
			ring = append(ring, [2]topo.NodeID{s, d})
		}
	}
	return NewRouter(Compute(set, Options{}), LowestDim), ring
}

// BenchmarkUnicastQ20 is the router's hot path at serving scale: Q20
// with 2000 uniform faults, cycling a ring of 32,768 nonfaulty pairs.
func BenchmarkUnicastQ20(b *testing.B) {
	rt, ring := routeRing(b, 20, 2000, 1<<15, 42)
	b.ReportAllocs()
	b.ResetTimer()
	hops := 0
	for i := 0; i < b.N; i++ {
		q := ring[i%len(ring)]
		hops += rt.Unicast(q[0], q[1]).Len()
	}
	if hops < 0 {
		b.Fatal(hops)
	}
}

// TestUnicastAllocs ratchets the router's allocations per route: the
// Route itself, its Path and its Hops, each allocated once at admission.
// WalkSummary walks the same routes without building them and allocates
// nothing.
func TestUnicastAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	for _, sz := range []struct{ n, faults int }{{10, 20}, {20, 2000}} {
		rt, ring := routeRing(t, sz.n, sz.faults, 4096, 42)
		i := 0
		allocs := testing.AllocsPerRun(len(ring), func() {
			q := ring[i%len(ring)]
			i++
			rt.Unicast(q[0], q[1])
		})
		if allocs > 3 {
			t.Errorf("Q%d: %.1f allocs per route, want <= 3", sz.n, allocs)
		}
		allocs = testing.AllocsPerRun(len(ring), func() {
			q := ring[i%len(ring)]
			i++
			rt.WalkSummary(q[0], q[1])
		})
		if allocs != 0 {
			t.Errorf("Q%d: %.2f allocs per walked summary, want 0", sz.n, allocs)
		}
	}
}

// TestHopNavCarried checks the navigation vector the router carries
// along a route against a fresh recomputation at every hop, and that
// the route was sized once for its Theorem 2 length, on random binary
// and mixed-radix fault sets with node and link faults.
func TestHopNavCarried(t *testing.T) {
	shapes := []topo.Topology{topo.MustCube(8), topo.MustMixed(3, 2, 4), topo.MustMixed(3, 3, 3), topo.MustMixed(4, 3, 2, 2)}
	for _, tp := range shapes {
		for seed := uint64(1); seed <= 6; seed++ {
			set := faults.NewSet(tp)
			rng := stats.NewRNG(seed)
			if err := faults.InjectUniform(set, rng, tp.Dim()+int(seed)); err != nil {
				t.Fatal(err)
			}
			if err := faults.InjectUniformLinks(set, rng, int(seed)); err != nil {
				t.Fatal(err)
			}
			as := Compute(set, Options{})
			for _, rt := range []*Router{NewRouter(as, LowestDim), NewRouter(as, HighestDim)} {
				for k := 0; k < 400; k++ {
					s, d := topo.NodeID(rng.Intn(tp.Nodes())), topo.NodeID(rng.Intn(tp.Nodes()))
					if set.NodeFaulty(s) {
						continue
					}
					r := rt.Unicast(s, d)
					if r.Outcome == Failure {
						continue
					}
					if c := cap(r.Path); c > r.Hamming+3 {
						t.Fatalf("%v %s->%s: cap(Path) = %d > H+3 = %d", tp, tp.Format(s), tp.Format(d), c, r.Hamming+3)
					}
					if len(r.Hops) != r.Path.Len() {
						t.Fatalf("%v %s->%s: %d hops for a %d-hop path", tp, tp.Format(s), tp.Format(d), len(r.Hops), r.Path.Len())
					}
					for j, h := range r.Hops {
						if h.From != r.Path[j] || h.To != r.Path[j+1] || h.Dim != tp.LinkDim(h.From, h.To) {
							t.Fatalf("%v %s->%s hop %d: %+v does not match path %s", tp, tp.Format(s), tp.Format(d), j, h, r.Path.FormatWith(tp))
						}
						if want := topo.NavIn(tp, h.To, d); h.Nav != want {
							t.Fatalf("%v %s->%s hop %d: Nav = %b, want %b", tp, tp.Format(s), tp.Format(d), j, h.Nav, want)
						}
					}
				}
			}
		}
	}
}

// TestObserverHopCounts checks that an observer, which gets each
// route's hops in one update, counts the same hops and spare hops as
// the routes hold.
func TestObserverHopCounts(t *testing.T) {
	set := faults.NewSet(topo.MustMixed(4, 2, 3))
	rng := stats.NewRNG(11)
	if err := faults.InjectUniform(set, rng, 3); err != nil {
		t.Fatal(err)
	}
	if err := faults.InjectUniformLinks(set, rng, 3); err != nil {
		t.Fatal(err)
	}
	as := Compute(set, Options{})
	counted := obs.NewRegistry()
	rt := NewRouter(as, LowestDim).Observe(counted.RouteObserver())
	var hops, spares int64
	nodes := set.Topology().Nodes()
	for s := 0; s < nodes; s++ {
		for d := 0; d < nodes; d++ {
			r := rt.Unicast(topo.NodeID(s), topo.NodeID(d))
			hops += int64(len(r.Hops))
			if len(r.Hops) > 0 && r.Hops[0].Spare {
				spares++
			}
		}
	}
	if spares == 0 {
		t.Fatal("fault set admits no C3 route")
	}
	c := counted.Snapshot().Counters
	if c[obs.MetricHopsTotal] != hops || c[obs.MetricSpareHopsTotal] != spares {
		t.Errorf("hops %d spares %d, want %d and %d",
			c[obs.MetricHopsTotal], c[obs.MetricSpareHopsTotal], hops, spares)
	}
}
