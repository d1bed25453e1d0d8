package core

import (
	"runtime"
	"testing"

	"repro/internal/faults"
	"repro/internal/stats"
	"repro/internal/topo"
)

// TestColdFrontierQ4 pins the cold frontier on Q4 with faults {0, 3}.
// Nodes 1 and 2 each have both faults as neighbors and fall to level 1;
// every other neighbor of a fault, and every neighbor of 1 or 2, has
// one neighbor below 4 and keeps level 4. A cold run evaluates exactly
// the two nodes that fall: two evaluations, and each node that changed
// level must have been one of them. Evaluating every sibling of a
// clamped or changed node made 10.
func TestColdFrontierQ4(t *testing.T) {
	set := faults.NewSet(topo.MustCube(4))
	for _, a := range []topo.NodeID{0, 3} {
		if err := set.FailNode(a); err != nil {
			t.Fatal(err)
		}
	}
	for _, opts := range []Options{{}, {Workers: -1}} {
		as, evals := compute(set, opts)
		if evals != 2 {
			t.Errorf("workers=%d: the frontier made %d evaluations, want 2", opts.Workers, evals)
		}
		for a := 0; a < 16; a++ {
			want := 4
			switch a {
			case 0, 3:
				want = 0
			case 1, 2:
				want = 1
			}
			if got := as.Level(topo.NodeID(a)); got != want {
				t.Errorf("workers=%d: node %d level %d, want %d", opts.Workers, a, got, want)
			}
		}
		if as.Rounds() != 1 || as.Evals() != 14*2 {
			t.Errorf("workers=%d: rounds %d evals %d, want 1 and 28", opts.Workers, as.Rounds(), as.Evals())
		}
	}
}

// TestColdFrontierQ20 bounds the evaluations of a cold run on Q20 with
// 2000 uniform faults, where almost every neighbor of a fault has no
// other faulty neighbor. Evaluating every sibling of a clamped or
// changed node made 52,066 here, for 735 level changes over 2 rounds.
// The result must still be a fixpoint.
func TestColdFrontierQ20(t *testing.T) {
	set := faults.NewSet(topo.MustCube(20))
	if err := faults.InjectUniform(set, stats.NewRNG(42), 2000); err != nil {
		t.Fatal(err)
	}
	as, evals := compute(set, Options{})
	t.Logf("%d frontier evaluations, %d rounds, deltas %v", evals, as.Rounds(), as.Deltas())
	if evals > 5000 {
		t.Errorf("the frontier made %d evaluations, want at most 5000", evals)
	}
	if err := as.Verify(); err != nil {
		t.Fatal(err)
	}
}

// TestComputeFaultFreeQ20Bytes bounds what a fault-free Q20 cold run
// allocates: one all-n page shared by the whole directory, the
// directory and the Assignment, not a 1 MiB table.
func TestComputeFaultFreeQ20Bytes(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	set := faults.NewSet(topo.MustCube(20))
	Compute(set, Options{}) // fill the scratch pool
	const runs = 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		Compute(set, Options{})
	}
	runtime.ReadMemStats(&after)
	perRun := (after.TotalAlloc - before.TotalAlloc) / runs
	t.Logf("%d bytes per fault-free Q20 Compute", perRun)
	if perRun >= 64<<10 {
		t.Errorf("a fault-free Q20 Compute allocates %d bytes, want under 64 KiB", perRun)
	}
}
