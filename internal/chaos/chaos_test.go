package chaos

import (
	"fmt"
	"testing"

	"repro/internal/faults"
	"repro/internal/topo"
)

// TestChurnChaosSmallShapes runs the full harness — bit-identity,
// Theorem-2 realization over every node, and routed-path legality — on
// shapes small enough for the exhaustive quadratic oracle.
func TestChurnChaosSmallShapes(t *testing.T) {
	shapes := []topo.Topology{
		topo.MustCube(4),
		topo.MustCube(5),
		topo.MustMixed(2, 3, 2),
		topo.MustMixed(3, 3, 3),
	}
	for si, tp := range shapes {
		for _, links := range []bool{false, true} {
			name := fmt.Sprintf("shape%d/links=%v", si, links)
			t.Run(name, func(t *testing.T) {
				rep, err := Run(tp, 60, Options{
					Churn:    faults.ChurnOptions{Links: links},
					Unicasts: 4,
					Seed:     uint64(200 + si),
				})
				if err != nil {
					t.Fatal(err)
				}
				if rep.Routes == 0 {
					t.Fatal("harness routed nothing")
				}
			})
		}
	}
}

// TestChurnChaosAcceptanceQ10 is the issue's acceptance run: a 10-cube
// under a 200-step random fail/recover schedule. The harness already
// enforces bit-identical repaired-vs-cold tables at every step; on top,
// the total repair work must undercut cold recomputation by at least 3x.
// The oracle check samples 16 sources per step (it is quadratic in cube
// size); the small-shape test above covers the exhaustive sweep.
func TestChurnChaosAcceptanceQ10(t *testing.T) {
	rep, err := Run(topo.MustCube(10), 200, Options{
		Churn:         faults.ChurnOptions{Links: true},
		OracleSources: 16,
		Unicasts:      2,
		Seed:          10,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Steps != 200 {
		t.Fatalf("schedule ran %d steps, want 200", rep.Steps)
	}
	if rep.RepairEvals*3 > rep.ColdEvals {
		t.Fatalf("repair evals %d not 3x below cold evals %d (ratio %.2f)",
			rep.RepairEvals, rep.ColdEvals, float64(rep.ColdEvals)/float64(rep.RepairEvals))
	}
	t.Logf("Q10/200 steps: repair evals %d, cold evals %d (%.1fx), repair rounds %d, cold rounds %d, dirty %d",
		rep.RepairEvals, rep.ColdEvals, float64(rep.ColdEvals)/float64(rep.RepairEvals),
		rep.RepairRounds, rep.ColdRounds, rep.DirtyNodes)
}

// TestChurnChaosParallelWorkers runs the Q7 link-churn harness on four
// goroutines at once. Every run must pass the differential and report
// the work of the run made alone before; under -race this checks that
// concurrent harness runs share no state beyond the engine's pooled
// scratch.
func TestChurnChaosParallelWorkers(t *testing.T) {
	tp := topo.MustCube(7)
	opts := Options{
		Churn:         faults.ChurnOptions{Links: true},
		OracleSources: 16,
		Unicasts:      2,
		Seed:          77,
	}
	want, err := Run(tp, 80, opts)
	if err != nil {
		t.Fatal(err)
	}
	if want.Steps != 80 {
		t.Fatalf("schedule ran %d steps, want 80", want.Steps)
	}
	errs := make(chan error, 4)
	for g := 0; g < 4; g++ {
		go func() {
			rep, err := Run(tp, 80, opts)
			if err == nil && *rep != *want {
				err = fmt.Errorf("report %+v, want %+v", rep, want)
			}
			errs <- err
		}()
	}
	for g := 0; g < 4; g++ {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
}
