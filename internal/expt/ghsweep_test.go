package expt

import (
	"testing"

	"repro/internal/core"
	"repro/internal/topo"
)

// TestGHSweepGuarantees runs the generalized-hypercube sweep at test
// scale and checks the paper's hard claims: no routing failure below n
// faults, and never an Optimal verdict without a surviving optimal path.
func TestGHSweepGuarantees(t *testing.T) {
	tab := GHSweep(Config{Trials: 15})
	if len(tab.Rows) != 2*len(ghShapes) {
		t.Fatalf("rows = %d, want %d", len(tab.Rows), 2*len(ghShapes))
	}
	for i, row := range tab.Rows {
		if row[7] != "0" {
			t.Errorf("row %d (%s, %s faults): %s oracle mismatches", i, row[0], row[1], row[7])
		}
		// Even rows use n-1 faults — below the Theorem 3 threshold, so
		// failures must be exactly 0.
		if i%2 == 0 && row[3] != "0" {
			t.Errorf("row %d (%s, %s faults): %s failures below n faults", i, row[0], row[1], row[3])
		}
	}
}

// TestGHDistributedAgreement checks the distributed-vs-sequential GS
// fixpoint agreement column across every GH shape.
func TestGHDistributedAgreement(t *testing.T) {
	tab := GHDistributed(Config{Trials: 5})
	if len(tab.Rows) != len(ghShapes) {
		t.Fatalf("rows = %d, want %d", len(tab.Rows), len(ghShapes))
	}
	for i, row := range tab.Rows {
		if row[3] != "0" {
			t.Errorf("row %d (%s): %s level mismatches", i, row[0], row[3])
		}
	}
}

// TestGHFig5SetMatchesPaper pins Fig5Set to the fault set that core's
// Fig. 5 tests build inline, GH(2x3x2) with faults 011, 100, 111, 121,
// and checks the paper's S(110) = 1 on it.
func TestGHFig5SetMatchesPaper(t *testing.T) {
	s := Fig5Set()
	m, ok := s.Topology().(*topo.Mixed)
	if !ok || m.String() != "GH(2x3x2)" {
		t.Fatalf("Fig5Set topology = %v, want GH(2x3x2)", s.Topology())
	}
	if got := topo.Path(s.FaultyNodes()).FormatWith(m); got != "011 -> 100 -> 111 -> 121" {
		t.Errorf("Fig5Set faults = %s, want 011, 100, 111, 121", got)
	}
	if got := core.Compute(s, core.Options{}).Level(m.MustParse("110")); got != 1 {
		t.Errorf("S(110) = %d, want 1 (paper)", got)
	}
}
