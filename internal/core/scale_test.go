package core

import (
	"os"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/stats"
	"repro/internal/topo"
)

// TestScaleSmokeQ20 is the `make scale-smoke` gate: a cold GS run over
// the full Q20 cube (1,048,576 nodes, 64 random faults) followed by one
// incremental repair, inside a wall-clock budget. The flat SoA core
// keeps its working state in one byte-per-node level table (1 MiB at
// Q20), a few 128 KiB bitsets and a sparse stability entry per node
// that changes, and each round evaluates only the nodes whose inputs
// changed — which is what makes a million-node run a sub-second
// operation instead of a map-walking crawl.
//
// Gated behind SCALE_SMOKE=1 so the ordinary `go test ./...` tier stays
// fast; the budget is generous (CI hardware varies) — the point is
// "completes at all, in seconds not minutes".
func TestScaleSmokeQ20(t *testing.T) {
	if os.Getenv("SCALE_SMOKE") == "" {
		t.Skip("set SCALE_SMOKE=1 (or run `make scale-smoke`) for the Q20 sweep")
	}
	const budget = 90 * time.Second
	start := time.Now()

	c := topo.MustCube(20)
	set := faults.NewSet(c)
	if err := faults.InjectUniform(set, stats.NewRNG(7), 64); err != nil {
		t.Fatal(err)
	}
	// Scattered faults barely perturb Q20 (one 0-safe neighbor never
	// lowers a level); surround node 0 to force a multi-round cascade.
	for i := 0; i < c.Dim(); i++ {
		if err := set.FailNode(c.Neighbor(0, i)); err != nil {
			t.Fatal(err)
		}
	}
	as := Compute(set, Options{})
	cold := time.Since(start)
	t.Logf("Q20 cold GS: %v (rounds=%d evals=%d tableBytes=%d)",
		cold, as.Rounds(), as.Evals(), as.TableBytes())

	// The fixpoint must actually be the Definition 1 fixpoint.
	if err := as.Verify(); err != nil {
		t.Fatal(err)
	}

	// One churn event through the incremental path: repair at Q20 must
	// touch a bounded neighborhood, not the cube.
	gen := set.Generation()
	if err := set.FailNode(topo.NodeID(123456)); err != nil {
		t.Fatal(err)
	}
	delta, ok := set.Since(gen)
	if !ok {
		t.Fatal("journal gap after one event")
	}
	repStart := time.Now()
	rep, ok := RepairLevels(as, set, delta, Options{})
	if !ok {
		t.Fatal("repair refused")
	}
	t.Logf("Q20 single-event repair: %v (dirty=%d evals=%d)",
		time.Since(repStart), rep.DirtyNodes(), rep.Evals())
	if rep.Evals() >= as.Evals() {
		t.Errorf("repair evals %d not below cold evals %d", rep.Evals(), as.Evals())
	}

	if elapsed := time.Since(start); elapsed > budget {
		t.Fatalf("Q20 scale smoke took %v, budget %v", elapsed, budget)
	}
}
