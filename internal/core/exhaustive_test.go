package core

// Exhaustive verification on small cubes: rather than sampling, these
// tests enumerate EVERY fault set of a given size and check the paper's
// theorems for EVERY source/destination pair. They are the strongest
// correctness evidence in the repository: any counterexample to
// Theorems 1-3 or Property 1-2 in Q4 (and sampled Q5) would be found.

import (
	"testing"

	"repro/internal/faults"
	"repro/internal/topo"
)

// forEachFaultSet enumerates all fault sets of exactly k nodes in an
// n-cube and calls fn with a reusable Set.
func forEachFaultSet(t *testing.T, n, k int, fn func(*faults.Set)) {
	t.Helper()
	forEachFaultSetIn(t, topo.MustCube(n), k, fn)
}

// forEachFaultSetIn is forEachFaultSet over any topology.
func forEachFaultSetIn(t *testing.T, tp topo.Topology, k int, fn func(*faults.Set)) {
	t.Helper()
	nodes := tp.Nodes()
	idx := make([]int, k)
	for i := range idx {
		idx[i] = i
	}
	for {
		s := faults.NewSet(tp)
		for _, v := range idx {
			if err := s.FailNode(topo.NodeID(v)); err != nil {
				t.Fatal(err)
			}
		}
		fn(s)
		// Next combination.
		i := k - 1
		for i >= 0 && idx[i] == nodes-k+i {
			i--
		}
		if i < 0 {
			return
		}
		idx[i]++
		for j := i + 1; j < k; j++ {
			idx[j] = idx[j-1] + 1
		}
	}
}

func TestExhaustiveQ4UpToThreeFaults(t *testing.T) {
	// All C(16,0)+C(16,1)+C(16,2)+C(16,3) = 697 fault sets with fewer
	// than n = 4 faults: the full guarantee regime.
	c := topo.MustCube(4)
	count := 0
	for k := 0; k <= 3; k++ {
		forEachFaultSet(t, 4, k, func(s *faults.Set) {
			count++
			as := Compute(s, Options{})
			// Theorem 1: the computed assignment is the fixpoint.
			if err := as.Verify(); err != nil {
				t.Fatalf("faults %s: %v", s, err)
			}
			// Corollary: stabilization within n-1 rounds.
			if as.Rounds() > 3 {
				t.Fatalf("faults %s: %d rounds", s, as.Rounds())
			}
			// Property 2: below n faults every nonfaulty unsafe node
			// has a safe neighbor.
			if err := as.CheckProperty2(); err != nil {
				t.Fatalf("faults %s: %v", s, err)
			}
			rt := NewRouter(as, nil)
			for src := 0; src < c.Nodes(); src++ {
				sid := topo.NodeID(src)
				if s.NodeFaulty(sid) {
					continue
				}
				// Theorem 2 for this source.
				k := as.Level(sid)
				for dst := 0; dst < c.Nodes(); dst++ {
					did := topo.NodeID(dst)
					if s.NodeFaulty(did) {
						continue
					}
					h := topo.Hamming(sid, did)
					if h >= 1 && h <= k && !faults.HasOptimalPath(s, sid, did) {
						t.Fatalf("faults %s: Theorem 2 violated at %s (level %d) -> %s",
							s, c.Format(sid), k, c.Format(did))
					}
					// Theorem 3 + Property 2: never a failure.
					r := rt.Unicast(sid, did)
					if r.Outcome == Failure {
						t.Fatalf("faults %s: unicast %s -> %s failed below n faults",
							s, c.Format(sid), c.Format(did))
					}
					if r.Err != nil {
						t.Fatalf("faults %s: transport error %v", s, r.Err)
					}
					wantLen := h
					if r.Outcome == Suboptimal {
						wantLen = h + 2
					}
					if r.Len() != wantLen {
						t.Fatalf("faults %s: %s -> %s length %d, want %d",
							s, c.Format(sid), c.Format(did), r.Len(), wantLen)
					}
				}
			}
		})
	}
	if count != 697 {
		t.Errorf("enumerated %d fault sets, want 697", count)
	}
}

func TestExhaustiveQ4FourFaults(t *testing.T) {
	// All C(16,4) = 1820 four-fault sets: beyond the guarantee bound.
	// The algorithm may abort, but every abort must be a clean source
	// decision, every delivery must honor the length contract, and
	// cross-partition requests must always abort.
	if testing.Short() {
		t.Skip("exhaustive enumeration skipped in -short mode")
	}
	c := topo.MustCube(4)
	count, disconnected := 0, 0
	forEachFaultSet(t, 4, 4, func(s *faults.Set) {
		count++
		as := Compute(s, Options{})
		if err := as.Verify(); err != nil {
			t.Fatalf("faults %s: %v", s, err)
		}
		labels, comps := faults.Components(s)
		if comps > 1 {
			disconnected++
		}
		rt := NewRouter(as, nil)
		for src := 0; src < c.Nodes(); src++ {
			sid := topo.NodeID(src)
			if s.NodeFaulty(sid) {
				continue
			}
			for dst := 0; dst < c.Nodes(); dst++ {
				did := topo.NodeID(dst)
				if s.NodeFaulty(did) {
					continue
				}
				r := rt.Unicast(sid, did)
				crossPartition := labels[sid] != labels[did]
				if crossPartition && r.Outcome != Failure {
					t.Fatalf("faults %s: cross-partition %s -> %s not aborted",
						s, c.Format(sid), c.Format(did))
				}
				if r.Outcome == Failure {
					if r.Err != nil {
						t.Fatalf("faults %s: %s -> %s transport error %v (should abort at source)",
							s, c.Format(sid), c.Format(did), r.Err)
					}
					continue
				}
				h := topo.Hamming(sid, did)
				wantLen := h
				if r.Outcome == Suboptimal {
					wantLen = h + 2
				}
				if r.Len() != wantLen {
					t.Fatalf("faults %s: %s -> %s length %d, want %d",
						s, c.Format(sid), c.Format(did), r.Len(), wantLen)
				}
				for _, a := range r.Path[1:] {
					if a != did && s.NodeFaulty(a) {
						t.Fatalf("faults %s: path crosses fault", s)
					}
				}
			}
		}
	})
	if count != 1820 {
		t.Errorf("enumerated %d fault sets, want 1820", count)
	}
	if disconnected == 0 {
		t.Error("no disconnected instance among four-fault Q4 sets (expected some)")
	}
}

func TestExhaustiveQ5TwoFaults(t *testing.T) {
	// All C(32,2) = 496 two-fault sets in Q5, full pair coverage.
	if testing.Short() {
		t.Skip("exhaustive enumeration skipped in -short mode")
	}
	c := topo.MustCube(5)
	count := 0
	forEachFaultSet(t, 5, 2, func(s *faults.Set) {
		count++
		as := Compute(s, Options{})
		if err := as.Verify(); err != nil {
			t.Fatalf("faults %s: %v", s, err)
		}
		if err := as.CheckProperty2(); err != nil {
			t.Fatalf("faults %s: %v", s, err)
		}
		rt := NewRouter(as, nil)
		for src := 0; src < c.Nodes(); src += 3 {
			sid := topo.NodeID(src)
			if s.NodeFaulty(sid) {
				continue
			}
			for dst := 0; dst < c.Nodes(); dst++ {
				did := topo.NodeID(dst)
				if s.NodeFaulty(did) {
					continue
				}
				r := rt.Unicast(sid, did)
				if r.Outcome == Failure {
					t.Fatalf("faults %s: %s -> %s failed with 2 < n faults",
						s, c.Format(sid), c.Format(did))
				}
			}
		}
	})
	if count != 496 {
		t.Errorf("enumerated %d fault sets, want 496", count)
	}
}

func TestExhaustiveQ4SingleLinkFault(t *testing.T) {
	// Every single-link-fault instance of Q4 (32 links), with every
	// source/destination pair: EGS consistency and routing contracts.
	c := topo.MustCube(4)
	links := 0
	for a := 0; a < c.Nodes(); a++ {
		for d := 0; d < c.Dim(); d++ {
			b := c.Neighbor(topo.NodeID(a), d)
			if topo.NodeID(a) > b {
				continue
			}
			links++
			s := faults.NewSet(c)
			if err := s.FailLink(topo.NodeID(a), b); err != nil {
				t.Fatal(err)
			}
			as := Compute(s, Options{})
			if err := as.Verify(); err != nil {
				t.Fatalf("link (%s,%s): %v", c.Format(topo.NodeID(a)), c.Format(b), err)
			}
			// Both endpoints are publicly 0 but own levels stay high:
			// only one "faulty" node in each endpoint's own view.
			for _, end := range []topo.NodeID{topo.NodeID(a), b} {
				if as.Level(end) != 0 {
					t.Fatalf("link endpoint %s public level %d", c.Format(end), as.Level(end))
				}
				if as.OwnLevel(end) < 1 {
					t.Fatalf("link endpoint %s own level %d", c.Format(end), as.OwnLevel(end))
				}
			}
			rt := NewRouter(as, nil)
			for src := 0; src < c.Nodes(); src++ {
				for dst := 0; dst < c.Nodes(); dst++ {
					sid, did := topo.NodeID(src), topo.NodeID(dst)
					r := rt.Unicast(sid, did)
					if r.Outcome == Failure {
						if r.Err != nil {
							t.Fatalf("link (%s,%s): %s -> %s transport error %v",
								c.Format(topo.NodeID(a)), c.Format(b),
								c.Format(sid), c.Format(did), r.Err)
						}
						continue
					}
					for i := 1; i < len(r.Path); i++ {
						if s.LinkFaulty(r.Path[i-1], r.Path[i]) {
							t.Fatalf("route crosses the dead link")
						}
					}
				}
			}
		}
	}
	if links != 32 {
		t.Errorf("enumerated %d links, want 32", links)
	}
}

func TestExhaustiveUniquenessQ3(t *testing.T) {
	// Theorem 1 exhaustively on Q3: for every one of the 2^8 fault
	// subsets, the from-above and from-below iterations agree.
	c := topo.MustCube(3)
	for mask := 0; mask < 256; mask++ {
		s := faults.NewSet(c)
		for a := 0; a < 8; a++ {
			if mask&(1<<a) != 0 {
				s.FailNode(topo.NodeID(a))
			}
		}
		as := Compute(s, Options{})
		if err := as.Verify(); err != nil {
			t.Fatalf("mask %08b: %v", mask, err)
		}
		below := computeFromBelow(c, s)
		for a := 0; a < 8; a++ {
			if below[a] != as.Level(topo.NodeID(a)) {
				t.Fatalf("mask %08b: node %d from-below %d != from-above %d",
					mask, a, below[a], as.Level(topo.NodeID(a)))
			}
		}
	}
}
