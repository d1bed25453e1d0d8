package core

import (
	"fmt"
	"runtime"
	"slices"
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
	as, evals := compute(set, Options{})
	if evals != 2 {
		t.Errorf("the frontier made %d evaluations, want 2", evals)
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
			t.Errorf("node %d level %d, want %d", a, got, want)
		}
	}
	if as.Rounds() != 1 || as.Evals() != 14*2 {
		t.Errorf("rounds %d evals %d, want 1 and 28", as.Rounds(), as.Evals())
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

// TestConcurrentRunsShareScratch runs cold runs and repairs from four
// goroutines at once, on two topologies of different sizes, so the
// engine's scratch passes between them through spare and scratchPool
// and is resized on the way. Every run must equal the one made alone
// before. Run it under -race.
func TestConcurrentRunsShareScratch(t *testing.T) {
	type job struct {
		set  *faults.Set
		prev *Assignment
		d    []faults.Delta
		want *Assignment
	}
	var jobs []job
	for i, tp := range []topo.Topology{topo.MustCube(13), topo.MustMixed(3, 4, 5)} {
		set := faults.NewSet(tp)
		if err := faults.InjectUniform(set, stats.NewRNG(uint64(60+i)), 6); err != nil {
			t.Fatal(err)
		}
		prev := Compute(set, Options{})
		gen := set.Generation()
		if err := set.FailNode(topo.NodeID(tp.Nodes() / 2)); err != nil {
			t.Fatal(err)
		}
		d, _ := set.Since(gen)
		jobs = append(jobs, job{set, prev, d, Compute(set, Options{})})
	}
	done := make(chan error, 4)
	for g := 0; g < 4; g++ {
		go func(g int) {
			for k := 0; k < 20; k++ {
				j := jobs[(g+k)%len(jobs)]
				got, ok := Compute(j.set, Options{}), true
				if k%2 == 1 {
					got, ok = RepairLevels(j.prev, j.set, j.d, Options{})
				}
				if !ok || !slices.Equal(got.Levels(), j.want.Levels()) || !slices.Equal(ownLevels(got), ownLevels(j.want)) {
					done <- fmt.Errorf("goroutine %d run %d on %v: levels differ from the run made alone", g, k, j.set.Topology())
					return
				}
			}
			done <- nil
		}(g)
	}
	for g := 0; g < 4; g++ {
		if err := <-done; err != nil {
			t.Error(err)
		}
	}
}

// TestParallelMatchesSequential runs Compute on every fuzzed fault set
// from four goroutines at once and requires each result to equal the
// run made alone on the test's goroutine: levels, own levels, rounds,
// per-round deltas and stabilization rounds. The sets span six
// topologies of different sizes, with node and link faults, so the
// pooled scratch passes between goroutines and is resized on the way.
// Run it under -race.
func TestParallelMatchesSequential(t *testing.T) {
	sets := fuzzedSets(t)
	want := make([]*Assignment, len(sets))
	for i, set := range sets {
		want[i] = Compute(set, Options{})
		if err := want[i].Verify(); err != nil {
			t.Fatalf("set %d: %v", i, err)
		}
	}
	errs := make(chan error, 4)
	for g := 0; g < 4; g++ {
		go func(g int) {
			for k := range sets {
				i := (g + k) % len(sets)
				if err := sameRun(Compute(sets[i], Options{}), want[i]); err != nil {
					errs <- fmt.Errorf("goroutine %d, set %d: %v", g, i, err)
					return
				}
			}
			errs <- nil
		}(g)
	}
	for g := 0; g < 4; g++ {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
}

// sameRun reports the first difference between two engine runs: their
// level views, rounds, per-round deltas, evaluation and dirty counts,
// and stabilization rounds.
func sameRun(got, want *Assignment) error {
	if !slices.Equal(got.Levels(), want.Levels()) || !slices.Equal(ownLevels(got), ownLevels(want)) {
		return fmt.Errorf("levels differ")
	}
	if got.Rounds() != want.Rounds() || !slices.Equal(got.Deltas(), want.Deltas()) ||
		got.Evals() != want.Evals() || got.DirtyNodes() != want.DirtyNodes() {
		return fmt.Errorf("rounds %d deltas %v evals %d dirty %d, want %d %v %d %d",
			got.Rounds(), got.Deltas(), got.Evals(), got.DirtyNodes(),
			want.Rounds(), want.Deltas(), want.Evals(), want.DirtyNodes())
	}
	for a := 0; a < want.Topology().Nodes(); a++ {
		if id := topo.NodeID(a); got.StableRound(id) != want.StableRound(id) {
			return fmt.Errorf("node %d stable round %d, want %d", a, got.StableRound(id), want.StableRound(id))
		}
	}
	return nil
}
