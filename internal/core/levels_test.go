package core

import (
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/faults"
	"repro/internal/stats"
	"repro/internal/topo"
)

// fig1 builds the faulty four-cube of Fig. 1: faults 0011, 0100, 0110, 1001.
func fig1(t testing.TB) (*topo.Cube, *faults.Set) {
	t.Helper()
	c := topo.MustCube(4)
	s := faults.NewSet(c)
	if err := s.FailNodes(c.MustParseAll("0011", "0100", "0110", "1001")...); err != nil {
		t.Fatal(err)
	}
	return c, s
}

// fig3 builds the disconnected four-cube of Fig. 3: faults 0110, 1010,
// 1100, 1111 (node 1110 is cut off).
func fig3(t testing.TB) (*topo.Cube, *faults.Set) {
	t.Helper()
	c := topo.MustCube(4)
	s := faults.NewSet(c)
	if err := s.FailNodes(c.MustParseAll("0110", "1010", "1100", "1111")...); err != nil {
		t.Fatal(err)
	}
	return c, s
}

func TestLevelFromSorted(t *testing.T) {
	cases := []struct {
		seq  []int
		want int
	}{
		{[]int{0, 1, 2, 3}, 4}, // exactly the threshold sequence
		{[]int{4, 4, 4, 4}, 4}, // all neighbors safe
		{[]int{0, 0, 2, 4}, 1}, // two zeros: 1-safe
		{[]int{0, 1, 1, 4}, 2}, // S2 = 1 < 2: 2-safe
		{[]int{0, 1, 2, 2}, 3}, // S3 = 2 < 3: 3-safe
		{[]int{0, 0, 0, 0}, 1}, // isolated node: still 1-safe
		{[]int{1, 1, 4, 4}, 4}, // Fig. 1 node 1010
		{[]int{0, 2, 4, 4}, 4}, // Fig. 1 node 1000
		{[]int{}, 0},           // degenerate: no neighbors
		{[]int{0}, 1},          // Q1 healthy node next to a fault
		{[]int{1}, 1},          // Q1: S0 >= 0 always, so level is 1
	}
	for _, tc := range cases {
		if got := LevelFromSorted(tc.seq); got != tc.want {
			t.Errorf("LevelFromSorted(%v) = %d, want %d", tc.seq, got, tc.want)
		}
	}
}

func TestLevelFromNeighborsUnsorted(t *testing.T) {
	if got := LevelFromNeighbors([]int{4, 0, 2, 0}, nil); got != 1 {
		t.Errorf("got %d, want 1", got)
	}
	// With scratch buffer, input must not be mutated.
	in := []int{4, 0, 2, 0}
	scratch := make([]int, 4)
	LevelFromNeighbors(in, scratch)
	if in[0] != 4 || in[1] != 0 || in[2] != 2 || in[3] != 0 {
		t.Error("input mutated")
	}
}

func TestLevelFromSortedMatchesPaperPredicate(t *testing.T) {
	// Property: our min-k formula equals the paper's literal condition:
	// S(a) = n if seq >= (0..n-1); else the k with prefix dominance and
	// S_k = k-1.
	paper := func(seq []int) int {
		n := len(seq)
		ge := func(k int) bool {
			for i := 0; i < k; i++ {
				if seq[i] < i {
					return false
				}
			}
			return true
		}
		if ge(n) {
			return n
		}
		for k := 0; k < n; k++ {
			if ge(k) && seq[k] == k-1 {
				return k
			}
		}
		return -1 // unreachable for sorted sequences
	}
	f := func(raw [6]uint8) bool {
		seq := make([]int, 6)
		for i, v := range raw {
			seq[i] = int(v % 7)
		}
		sort.Ints(seq)
		return LevelFromSorted(seq) == paper(seq)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestFig1Levels(t *testing.T) {
	c, s := fig1(t)
	as := Compute(s, Options{})
	want := map[string]int{
		"0000": 2, "0001": 1, "0010": 1, "0011": 0,
		"0100": 0, "0101": 2, "0110": 0, "0111": 1,
		"1000": 4, "1001": 0, "1010": 4, "1011": 1,
		"1100": 4, "1101": 4, "1110": 4, "1111": 4,
	}
	for addr, lv := range want {
		if got := as.Level(c.MustParse(addr)); got != lv {
			t.Errorf("S(%s) = %d, want %d", addr, got, lv)
		}
	}
	if err := as.Verify(); err != nil {
		t.Errorf("Verify: %v", err)
	}
	// "The safety level of each node remains stable after two rounds."
	if as.Rounds() != 2 {
		t.Errorf("Rounds = %d, paper says 2", as.Rounds())
	}
}

func TestFig1OwnEqualsPublicWithoutLinkFaults(t *testing.T) {
	c, s := fig1(t)
	as := Compute(s, Options{})
	for a := 0; a < c.Nodes(); a++ {
		if as.Level(topo.NodeID(a)) != as.OwnLevel(topo.NodeID(a)) {
			t.Errorf("node %s: public %d != own %d", c.Format(topo.NodeID(a)),
				as.Level(topo.NodeID(a)), as.OwnLevel(topo.NodeID(a)))
		}
	}
}

func TestFig3Levels(t *testing.T) {
	c, s := fig3(t)
	as := Compute(s, Options{})
	// Values stated or implied in Section 3.3: S(0101) = 2, S(0111) = 1,
	// S(0011) = 2, spare neighbors 0101 and 0011 of 0111 both 2, and the
	// isolated node 1110 is 1-safe (all four neighbors faulty).
	checks := map[string]int{
		"0101": 2, "0111": 1, "0011": 2, "1110": 1,
		"0110": 0, "1010": 0, "1100": 0, "1111": 0,
	}
	for addr, lv := range checks {
		if got := as.Level(c.MustParse(addr)); got != lv {
			t.Errorf("S(%s) = %d, want %d", addr, got, lv)
		}
	}
	if err := as.Verify(); err != nil {
		t.Errorf("Verify: %v", err)
	}
	// In a disconnected cube no node may be n-safe: by Theorem 2 an
	// n-safe node would have an optimal path to every node of the cube,
	// including the unreachable island 1110.
	for a := 0; a < c.Nodes(); a++ {
		if as.Level(topo.NodeID(a)) == c.Dim() {
			t.Errorf("Fig. 3: S(%s) = %d but the cube is disconnected",
				c.Format(topo.NodeID(a)), as.Level(topo.NodeID(a)))
		}
	}
}

func TestFaultFreeCubeAllSafeZeroRounds(t *testing.T) {
	for n := 1; n <= 8; n++ {
		c := topo.MustCube(n)
		s := faults.NewSet(c)
		as := Compute(s, Options{})
		if as.Rounds() != 0 {
			t.Errorf("n=%d: fault-free GS took %d rounds, want 0", n, as.Rounds())
		}
		for a := 0; a < c.Nodes(); a++ {
			if as.Level(topo.NodeID(a)) != n {
				t.Errorf("n=%d: fault-free node %d has level %d", n, a, as.Level(topo.NodeID(a)))
			}
		}
	}
}

func TestAllFaultyCube(t *testing.T) {
	c := topo.MustCube(3)
	s := faults.NewSet(c)
	for a := 0; a < c.Nodes(); a++ {
		s.FailNode(topo.NodeID(a))
	}
	as := Compute(s, Options{})
	for a := 0; a < c.Nodes(); a++ {
		if as.Level(topo.NodeID(a)) != 0 {
			t.Errorf("faulty node %d has level %d", a, as.Level(topo.NodeID(a)))
		}
	}
	if err := as.Verify(); err != nil {
		t.Errorf("Verify: %v", err)
	}
}

func TestRoundsWithinCorollaryBound(t *testing.T) {
	// Corollary to Property 1: n-1 rounds always suffice. Verify the
	// synchronous iteration indeed stabilizes within n-1 rounds for
	// random fault sets, including heavy ones.
	rng := stats.NewRNG(5150)
	for n := 2; n <= 8; n++ {
		c := topo.MustCube(n)
		for trial := 0; trial < 40; trial++ {
			s := faults.NewSet(c)
			faults.InjectUniform(s, rng, rng.Intn(c.Nodes()/2))
			as := Compute(s, Options{})
			if as.Rounds() > n-1 && n > 1 {
				t.Errorf("n=%d trial %d: GS took %d rounds > n-1 = %d (faults %s)",
					n, trial, as.Rounds(), n-1, s)
			}
			if err := as.Verify(); err != nil {
				t.Errorf("n=%d trial %d: %v", n, trial, err)
			}
		}
	}
}

func TestProperty1StableByRoundK(t *testing.T) {
	// Property 1: a k-safe node (k != n) reaches its stable status by
	// round k.
	rng := stats.NewRNG(404)
	for trial := 0; trial < 120; trial++ {
		c := topo.MustCube(6)
		s := faults.NewSet(c)
		faults.InjectUniform(s, rng, rng.Intn(16))
		as := Compute(s, Options{})
		for a := 0; a < c.Nodes(); a++ {
			id := topo.NodeID(a)
			k := as.Level(id)
			if k == c.Dim() {
				continue
			}
			if as.StableRound(id) > k {
				t.Fatalf("trial %d: %d-safe node %s stabilized at round %d (faults %s)",
					trial, k, c.Format(id), as.StableRound(id), s)
			}
		}
	}
}

func TestProperty2SafeNeighbor(t *testing.T) {
	// Property 2: fewer than n faults => every nonfaulty unsafe node has
	// a safe neighbor.
	rng := stats.NewRNG(808)
	for n := 3; n <= 8; n++ {
		c := topo.MustCube(n)
		for trial := 0; trial < 60; trial++ {
			s := faults.NewSet(c)
			faults.InjectUniform(s, rng, rng.Intn(n)) // 0..n-1 faults
			as := Compute(s, Options{})
			if err := as.CheckProperty2(); err != nil {
				t.Errorf("n=%d trial %d: %v", n, trial, err)
			}
		}
	}
}

func TestUniquenessFromBelow(t *testing.T) {
	// Theorem 1: the consistent assignment is unique. The synchronous
	// GS converges from above (all nonfaulty start at n); iterating from
	// below (all nonfaulty start at 0) must reach the same fixpoint.
	rng := stats.NewRNG(606)
	for trial := 0; trial < 80; trial++ {
		c := topo.MustCube(5)
		s := faults.NewSet(c)
		faults.InjectUniform(s, rng, rng.Intn(12))
		as := Compute(s, Options{})
		below := computeFromBelow(c, s)
		for a := 0; a < c.Nodes(); a++ {
			if below[a] != as.Level(topo.NodeID(a)) {
				t.Fatalf("trial %d: node %s from-below %d != from-above %d (faults %s)",
					trial, c.Format(topo.NodeID(a)), below[a], as.Level(topo.NodeID(a)), s)
			}
		}
	}
}

// computeFromBelow iterates Definition 1 (Definition 4 in a GH)
// starting from the all-zero initialization until a fixpoint, mirroring
// the constructive proof of Theorem 1 (round k assigns the k-safe nodes
// from the bottom up). Each dimension contributes the minimum level of
// its siblings; a binary dimension has exactly one.
func computeFromBelow(tp topo.Topology, s *faults.Set) []int {
	n := tp.Dim()
	cur := make([]int, tp.Nodes())
	next := make([]int, tp.Nodes())
	neigh := make([]int, n)
	var sibs []topo.NodeID
	for iter := 0; iter < tp.Nodes()+n; iter++ {
		changed := false
		for a := 0; a < tp.Nodes(); a++ {
			if s.NodeFaulty(topo.NodeID(a)) {
				next[a] = 0
				continue
			}
			for i := 0; i < n; i++ {
				neigh[i] = n
				sibs = tp.Siblings(topo.NodeID(a), i, sibs[:0])
				for _, b := range sibs {
					if cur[b] < neigh[i] {
						neigh[i] = cur[b]
					}
				}
			}
			next[a] = LevelFromNeighbors(neigh, nil)
			if next[a] != cur[a] {
				changed = true
			}
		}
		copy(cur, next)
		if !changed {
			break
		}
	}
	return cur
}

func TestMonotonicityUnderAddedFaults(t *testing.T) {
	// Adding a fault can only lower levels, never raise them.
	rng := stats.NewRNG(909)
	for trial := 0; trial < 60; trial++ {
		c := topo.MustCube(5)
		s := faults.NewSet(c)
		faults.InjectUniform(s, rng, rng.Intn(8))
		before := Compute(s, Options{})
		// Fail one more healthy node.
		var extra topo.NodeID
		for {
			extra = topo.NodeID(rng.Intn(c.Nodes()))
			if !s.NodeFaulty(extra) {
				break
			}
		}
		s2 := s.Clone()
		s2.FailNode(extra)
		after := Compute(s2, Options{})
		for a := 0; a < c.Nodes(); a++ {
			if after.Level(topo.NodeID(a)) > before.Level(topo.NodeID(a)) {
				t.Fatalf("trial %d: failing %s raised S(%s) from %d to %d",
					trial, c.Format(extra), c.Format(topo.NodeID(a)),
					before.Level(topo.NodeID(a)), after.Level(topo.NodeID(a)))
			}
		}
	}
}

func TestTheorem2OptimalPathExistence(t *testing.T) {
	// Theorem 2: k-safe => Hamming-distance path exists to every node
	// within distance k. Checked exhaustively on random 5-cubes against
	// the lattice-DP oracle. Destinations may be faulty only at
	// distance 1 (the proof's base case reaches faulty neighbors too),
	// so we restrict to nonfaulty destinations beyond distance 1.
	rng := stats.NewRNG(1234)
	for trial := 0; trial < 40; trial++ {
		c := topo.MustCube(5)
		s := faults.NewSet(c)
		faults.InjectUniform(s, rng, rng.Intn(10))
		as := Compute(s, Options{})
		for src := 0; src < c.Nodes(); src++ {
			sid := topo.NodeID(src)
			if s.NodeFaulty(sid) {
				continue
			}
			k := as.Level(sid)
			for dst := 0; dst < c.Nodes(); dst++ {
				did := topo.NodeID(dst)
				h := topo.Hamming(sid, did)
				if h == 0 || h > k || s.NodeFaulty(did) {
					continue
				}
				if !faults.HasOptimalPath(s, sid, did) {
					t.Fatalf("trial %d: S(%s) = %d but no optimal path to %s (H=%d, faults %s)",
						trial, c.Format(sid), k, c.Format(did), h, s)
				}
			}
		}
	}
}

func TestSafeSet(t *testing.T) {
	c, s := fig1(t)
	as := Compute(s, Options{})
	safe := as.SafeSet()
	want := c.MustParseAll("1000", "1010", "1100", "1101", "1110", "1111")
	if len(safe) != len(want) {
		t.Fatalf("SafeSet = %v, want %v", safe, want)
	}
	for i := range want {
		if safe[i] != want[i] {
			t.Errorf("SafeSet[%d] = %s, want %s", i, c.Format(safe[i]), c.Format(want[i]))
		}
	}
	unsafe := as.UnsafeNonfaulty()
	if len(unsafe) != 16-4-len(want) {
		t.Errorf("UnsafeNonfaulty has %d nodes", len(unsafe))
	}
}

func TestLevelsCopy(t *testing.T) {
	_, s := fig1(t)
	as := Compute(s, Options{})
	lv := as.Levels()
	lv[0] = 99
	if as.Level(0) == 99 {
		t.Error("Levels() must return a copy")
	}
}

func TestMaxRoundsTruncation(t *testing.T) {
	// Capping GS below the convergence round leaves an inconsistent
	// (over-optimistic) assignment; Verify must detect it.
	c, s := fig1(t)
	full := Compute(s, Options{})
	if full.Rounds() < 2 {
		t.Skip("scenario converged too fast to truncate")
	}
	truncated := Compute(s, Options{MaxRounds: 1})
	if err := truncated.Verify(); err == nil {
		t.Error("1-round truncated assignment should fail Verify")
	}
	// Truncated levels are an overestimate of the fixpoint.
	for a := 0; a < c.Nodes(); a++ {
		if truncated.Level(topo.NodeID(a)) < full.Level(topo.NodeID(a)) {
			t.Errorf("truncated level below fixpoint at %s", c.Format(topo.NodeID(a)))
		}
	}
}

func TestComputeDim1(t *testing.T) {
	c := topo.MustCube(1)
	s := faults.NewSet(c)
	s.FailNode(1)
	as := Compute(s, Options{})
	if as.Level(0) != 1 {
		// Node 0's only neighbor is faulty: sorted seq (0) has S0 = 0
		// >= 0, so node 0 is 1-safe (it can reach its one neighbor).
		t.Errorf("Q1 healthy node level = %d, want 1", as.Level(0))
	}
	if err := as.Verify(); err != nil {
		t.Error(err)
	}
}

func TestVerifyCatchesCorruption(t *testing.T) {
	_, s := fig1(t)
	as := Compute(s, Options{})
	as.public[0][5] = 3 // corrupt
	if err := as.Verify(); err == nil {
		t.Error("Verify should catch a corrupted level")
	}
	as2 := Compute(s, Options{})
	as2.public[0][3] = 1 // faulty node with nonzero level
	if err := as2.Verify(); err == nil {
		t.Error("Verify should catch nonzero faulty level")
	}
}
