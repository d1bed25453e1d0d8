package serve

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/stats"
	"repro/internal/topo"
)

// TestBatchUnicastMatchesSequential is the batch/sequential equivalence
// property across both topology families: for random fault sets and
// random request lists, BatchUnicastCtx returns element-wise exactly
// the routes that sequential Unicast calls on the same snapshot produce.
// The equality is structural (outcome, condition, path, hops), not just
// statistical.
func TestBatchUnicastMatchesSequential(t *testing.T) {
	topos := []struct {
		name string
		t    topo.Topology
	}{
		{"cube/q5", topo.MustCube(5)},
		{"cube/q7", topo.MustCube(7)},
		{"mixed/3x2x4", topo.MustMixed(3, 2, 4)},
		{"mixed/2x3x2x2", topo.MustMixed(2, 3, 2, 2)},
	}
	for _, tc := range topos {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			for trial := 0; trial < 8; trial++ {
				seed := uint64(trial)*131 + 7
				rng := stats.NewRNG(seed)
				set := faults.NewSet(tc.t)
				nfaults := rng.Intn(tc.t.Dim() + 2)
				if err := faults.InjectUniform(set, stats.NewRNG(seed^0xbeef), nfaults); err != nil {
					t.Fatal(err)
				}

				s, err := New(set, Options{})
				if err != nil {
					t.Fatal(err)
				}

				reqs := make([]Request, 1+rng.Intn(64))
				for i := range reqs {
					reqs[i] = Request{
						Src: topo.NodeID(rng.Intn(tc.t.Nodes())),
						Dst: topo.NodeID(rng.Intn(tc.t.Nodes())),
					}
				}

				sn := s.Current()
				got, err := s.BatchUnicastCtx(context.Background(), reqs)
				if err != nil {
					t.Fatal(err)
				}
				for i, q := range reqs {
					want := sn.Route(q.Src, q.Dst)
					if err := sameRoute(got[i], want); err != nil {
						t.Fatalf("trial %d request %d (%d->%d): %v", trial, i, q.Src, q.Dst, err)
					}
				}
				s.Close()
			}
		})
	}
}

// sameRoute compares two routes structurally.
func sameRoute(got, want *core.Route) error {
	if got == nil || want == nil {
		return fmt.Errorf("nil route (got %v, want %v)", got, want)
	}
	if got.Outcome != want.Outcome || got.Condition != want.Condition ||
		got.Hamming != want.Hamming || !reflect.DeepEqual(got.Path, want.Path) {
		return fmt.Errorf("batch %v/%v %v != sequential %v/%v %v",
			got.Outcome, got.Condition, got.Path, want.Outcome, want.Condition, want.Path)
	}
	if (got.Err == nil) != (want.Err == nil) {
		return fmt.Errorf("error mismatch: %v vs %v", got.Err, want.Err)
	}
	return nil
}

// TestRouteAllCoversTopology checks the fan-out: every destination gets
// an answer, the source slot stays nil, and answers match singles. A
// source outside the topology gets a route with Err set in every slot.
func TestRouteAllCoversTopology(t *testing.T) {
	for _, tp := range []topo.Topology{topo.MustCube(5), topo.MustMixed(2, 3, 3)} {
		set := faults.NewSet(tp)
		if err := faults.InjectUniform(set, stats.NewRNG(5), 3); err != nil {
			t.Fatal(err)
		}
		s, err := New(set, Options{})
		if err != nil {
			t.Fatal(err)
		}
		src := topo.NodeID(0)
		if s.Current().Assignment().Faults().NodeFaulty(src) {
			src = 1
		}
		sn := s.Current()
		all, err := s.RouteAllCtx(context.Background(), src)
		if err != nil {
			t.Fatal(err)
		}
		if len(all) != tp.Nodes() {
			t.Fatalf("RouteAll returned %d slots, want %d", len(all), tp.Nodes())
		}
		for a := 0; a < tp.Nodes(); a++ {
			if topo.NodeID(a) == src {
				if all[a] != nil {
					t.Fatal("source slot not nil")
				}
				continue
			}
			if all[a] == nil {
				t.Fatalf("destination %d missing from fan-out", a)
			}
			if err := sameRoute(all[a], sn.Route(src, topo.NodeID(a))); err != nil {
				t.Fatalf("dest %d: %v", a, err)
			}
		}
		outside := topo.NodeID(tp.Nodes())
		all, err = s.RouteAllCtx(context.Background(), outside)
		if err != nil {
			t.Fatal(err)
		}
		if len(all) != tp.Nodes() {
			t.Fatalf("RouteAll from outside returned %d slots, want %d", len(all), tp.Nodes())
		}
		for a, r := range all {
			if r == nil || r.Err == nil || r.Source != outside || r.Dest != topo.NodeID(a) {
				t.Fatalf("slot %d of a fan-out from outside the topology: %+v, want a route with Err", a, r)
			}
		}
		s.Close()
	}
}

// TestBatchReadersAllocateOnlyTheirWalks pins that the walking batch
// readers route on the caller's goroutine and start nothing of their
// own: with GOMAXPROCS at 4 when the service is built, BatchUnicastCtx
// (with a background and with a cancelable context) allocates exactly
// what its walks allocate plus its result slice, and RouteAllCtx what
// its walks allocate plus its result indexed by destination.
func TestBatchReadersAllocateOnlyTheirWalks(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	tp := topo.MustCube(6)
	s := newService(t, tp, Options{}, 9, 22, 45)
	sn := s.Current()
	rng := stats.NewRNG(3)
	reqs := make([]Request, 64)
	for i := range reqs {
		reqs[i] = Request{Src: topo.NodeID(rng.Intn(tp.Nodes())), Dst: topo.NodeID(rng.Intn(tp.Nodes()))}
	}
	walks := func(reqs []Request) float64 {
		return testing.AllocsPerRun(100, func() {
			for _, q := range reqs {
				sn.Route(q.Src, q.Dst)
			}
		})
	}
	cancelable, cancel := context.WithCancel(context.Background())
	defer cancel()
	for _, c := range []struct {
		name string
		ctx  context.Context
	}{{"background", context.Background()}, {"cancelable", cancelable}} {
		got := testing.AllocsPerRun(100, func() {
			if _, err := s.BatchUnicastCtx(c.ctx, reqs); err != nil {
				t.Fatal(err)
			}
		})
		if want := walks(reqs) + 1; got != want {
			t.Errorf("BatchUnicastCtx(%s) of %d pairs allocates %v times, want %v", c.name, len(reqs), got, want)
		}
	}
	const src = 0
	var fan []Request
	for a := 1; a < tp.Nodes(); a++ {
		fan = append(fan, Request{Src: src, Dst: topo.NodeID(a)})
	}
	got := testing.AllocsPerRun(100, func() {
		if _, err := s.RouteAllCtx(cancelable, src); err != nil {
			t.Fatal(err)
		}
	})
	if want := walks(fan) + 1; got != want {
		t.Errorf("RouteAllCtx allocates %v times, want %v", got, want)
	}
}
