package core

import (
	"fmt"
	"testing"

	"repro/internal/faults"
	"repro/internal/stats"
	"repro/internal/topo"
)

// assertSameFixpoint requires rep to be bit-identical to the cold
// assignment in both level views, and internally consistent.
func assertSameFixpoint(t *testing.T, name string, rep, cold *Assignment) {
	t.Helper()
	tp := cold.Topology()
	for a := 0; a < tp.Nodes(); a++ {
		id := topo.NodeID(a)
		if rep.Level(id) != cold.Level(id) {
			t.Fatalf("%s: node %s public %d, cold %d",
				name, tp.Format(id), rep.Level(id), cold.Level(id))
		}
		if rep.OwnLevel(id) != cold.OwnLevel(id) {
			t.Fatalf("%s: node %s own %d, cold %d",
				name, tp.Format(id), rep.OwnLevel(id), cold.OwnLevel(id))
		}
	}
	if err := rep.Verify(); err != nil {
		t.Fatalf("%s: repaired assignment inconsistent: %v", name, err)
	}
}

// replayRepair drives one churn schedule step by step, repairing after
// every event and comparing against a cold recomputation. It returns
// the accumulated (repairEvals, coldEvals) for work-ratio assertions.
func replayRepair(t *testing.T, tp topo.Topology, events []faults.ChurnEvent, opts Options) (int, int) {
	t.Helper()
	set := faults.NewSet(tp)
	as := Compute(set, opts)
	gen := set.Generation()
	repairEvals, coldEvals := 0, 0
	for i, ev := range events {
		if err := set.Apply(ev); err != nil {
			t.Fatalf("step %d %v: %v", i, ev, err)
		}
		delta, ok := set.Since(gen)
		if !ok {
			t.Fatalf("step %d: journal gap after one event", i)
		}
		rep, ok := RepairLevels(as, set, delta, opts)
		if !ok {
			t.Fatalf("step %d %v: repair refused", i, ev)
		}
		if !rep.Repaired() {
			t.Fatalf("step %d: repaired assignment not marked", i)
		}
		cold := Compute(set, opts)
		assertSameFixpoint(t, fmt.Sprintf("step %d (%v)", i, ev), rep, cold)
		repairEvals += rep.Evals()
		coldEvals += cold.Evals()
		as, gen = rep, set.Generation()
	}
	return repairEvals, coldEvals
}

// TestRepairMatchesColdUnderChurn is the differential heart of the
// incremental-repair contract: across binary and mixed-radix shapes,
// node-only and node+link schedules, the repaired assignment equals the
// cold fixpoint bit-for-bit after every single churn event.
func TestRepairMatchesColdUnderChurn(t *testing.T) {
	shapes := []topo.Topology{
		topo.MustCube(4),
		topo.MustCube(6),
		topo.MustMixed(2, 3, 2),
		topo.MustMixed(3, 3, 3),
	}
	for si, tp := range shapes {
		for _, links := range []bool{false, true} {
			name := fmt.Sprintf("shape%d/links=%v", si, links)
			t.Run(name, func(t *testing.T) {
				events := faults.ChurnSchedule(tp, uint64(1000+si), 60, faults.ChurnOptions{Links: links})
				if len(events) == 0 {
					t.Fatal("empty schedule")
				}
				replayRepair(t, tp, events, Options{})
			})
		}
	}
}

// TestRepairSavesWorkOnLargeCube checks the economics on a cube big
// enough for locality to matter: on Q10 a single-fault delta must
// repair with far fewer NODE_STATUS evaluations than the cold sweep.
// The full 200-step acceptance run lives in internal/chaos.
func TestRepairSavesWorkOnLargeCube(t *testing.T) {
	tp := topo.MustCube(10)
	events := faults.ChurnSchedule(tp, 7, 40, faults.ChurnOptions{})
	repairEvals, coldEvals := replayRepair(t, tp, events, Options{})
	if repairEvals*3 > coldEvals {
		t.Fatalf("repair evals %d not 3x below cold evals %d", repairEvals, coldEvals)
	}
}

// TestChurnRepairParallelMatchesSequential replays each shape's churn
// schedule on four goroutines at once, each over a fault set of its
// own, and requires every step's repair to equal the one made alone on
// the test's goroutine: levels, own levels and the run's statistics.
// Run it under -race.
func TestChurnRepairParallelMatchesSequential(t *testing.T) {
	shapes := []topo.Topology{topo.MustCube(6), topo.MustMixed(3, 3, 3)}
	for si, tp := range shapes {
		events := faults.ChurnSchedule(tp, uint64(99+si), 50, faults.ChurnOptions{Links: true})
		want, err := repairChain(tp, events)
		if err != nil {
			t.Fatalf("shape %d: %v", si, err)
		}
		errs := make(chan error, 4)
		for g := 0; g < 4; g++ {
			go func() {
				got, err := repairChain(tp, events)
				for i := 0; err == nil && i < len(got); i++ {
					if err = sameRun(got[i], want[i]); err != nil {
						err = fmt.Errorf("step %d: %v", i, err)
					}
				}
				errs <- err
			}()
		}
		for g := 0; g < 4; g++ {
			if err := <-errs; err != nil {
				t.Errorf("shape %d: %v", si, err)
			}
		}
	}
}

// repairChain applies events to a fault-free set one at a time and
// returns the assignment each step's repair produced, after checking
// it against Definition 1 on that step's faults.
func repairChain(tp topo.Topology, events []faults.ChurnEvent) ([]*Assignment, error) {
	set := faults.NewSet(tp)
	prev := Compute(set, Options{})
	gen := set.Generation()
	out := make([]*Assignment, 0, len(events))
	for i, ev := range events {
		if err := set.Apply(ev); err != nil {
			return nil, fmt.Errorf("step %d %v: %v", i, ev, err)
		}
		delta, ok := set.Since(gen)
		if !ok {
			return nil, fmt.Errorf("step %d: journal gap", i)
		}
		rep, ok := RepairLevels(prev, set, delta, Options{})
		if !ok {
			return nil, fmt.Errorf("step %d %v: repair refused", i, ev)
		}
		if err := rep.Verify(); err != nil {
			return nil, fmt.Errorf("step %d %v: %v", i, ev, err)
		}
		out = append(out, rep)
		prev, gen = rep, set.Generation()
	}
	return out, nil
}

// TestRepairRefusals pins the conditions under which RepairLevels must
// decline and send the caller to a cold recomputation.
func TestRepairRefusals(t *testing.T) {
	tp := topo.MustCube(4)
	set := faults.NewSet(tp)
	as := Compute(set, Options{})
	gen := set.Generation()
	set.FailNode(3)
	delta, _ := set.Since(gen)

	if _, ok := RepairLevels(nil, set, delta, Options{}); ok {
		t.Fatal("repair accepted nil prev")
	}
	if _, ok := RepairLevels(as, set, delta, Options{MaxRounds: 1}); ok {
		t.Fatal("repair accepted truncated-convergence options")
	}
	other := faults.NewSet(tp)
	otherAs := Compute(other, Options{})
	if _, ok := RepairLevels(otherAs, set, delta, Options{}); ok {
		t.Fatal("repair accepted assignment from a different set")
	}
	bogus := []faults.Delta{{Gen: 1, Kind: faults.DeltaFailNode, A: 999, B: 999}}
	if _, ok := RepairLevels(as, set, bogus, Options{}); ok {
		t.Fatal("repair accepted out-of-topology delta")
	}
}

// TestRepairEmptyFaultSet checks the fast path: recovering the last
// fault repairs to the pristine all-n fixpoint with zero rounds, the
// exact shape a cold run on a fault-free cube reports (several facade
// tests pin Rounds()==0 for fault-free cubes).
func TestRepairEmptyFaultSet(t *testing.T) {
	tp := topo.MustMixed(2, 3, 2)
	set := faults.NewSet(tp)
	as := Compute(set, Options{})
	gen := set.Generation()
	set.FailNode(5)
	set.RecoverNode(5)
	delta, ok := set.Since(gen)
	if !ok {
		t.Fatal("journal gap")
	}
	rep, ok := RepairLevels(as, set, delta, Options{})
	if !ok {
		t.Fatal("repair refused")
	}
	if rep.Rounds() != 0 {
		t.Fatalf("fault-free repair rounds = %d, want 0", rep.Rounds())
	}
	for a := 0; a < tp.Nodes(); a++ {
		if rep.Level(topo.NodeID(a)) != tp.Dim() {
			t.Fatalf("node %d level %d, want %d", a, rep.Level(topo.NodeID(a)), tp.Dim())
		}
	}
}

// fuzzedSets builds a deterministic spread of fault sets across binary
// and generalized topologies: node faults alone, link faults alone, and
// both (EGS), at light and heavy loads.
func fuzzedSets(tb testing.TB) []*faults.Set {
	tb.Helper()
	var sets []*faults.Set
	shapes := []topo.Topology{
		topo.MustCube(4),
		topo.MustCube(6),
		topo.MustCube(8),
		topo.MustMixed(2, 3, 2),
		topo.MustMixed(3, 3, 3),
		topo.MustMixed(4, 3, 2, 2),
	}
	rng := stats.NewRNG(42)
	for _, t := range shapes {
		for _, load := range []int{1, t.Dim(), 2 * t.Dim()} {
			s := faults.NewSet(t)
			if err := faults.InjectUniform(s, rng, load); err != nil {
				tb.Fatal(err)
			}
			sets = append(sets, s)

			if _, ok := t.(*topo.Cube); ok {
				sl := faults.NewSet(t)
				if err := faults.InjectUniformLinks(sl, rng, load); err != nil {
					tb.Fatal(err)
				}
				sets = append(sets, sl)

				both := faults.NewSet(t)
				if err := faults.InjectUniform(both, rng, load/2+1); err != nil {
					tb.Fatal(err)
				}
				if err := faults.InjectUniformLinks(both, rng, load/2+1); err != nil {
					tb.Fatal(err)
				}
				sets = append(sets, both)
			}
		}
	}
	return sets
}

// TestRepairAcrossFuzzedSets repairs from arbitrary (not churn-built)
// fault sets: starting from each fuzzed set's fixpoint, apply a handful
// of further mutations and require repair ≡ cold.
func TestRepairAcrossFuzzedSets(t *testing.T) {
	for si, set := range fuzzedSets(t) {
		as := Compute(set, Options{})
		gen := set.Generation()
		events := faults.ChurnSchedule(set.Topology(), uint64(si), 8, faults.ChurnOptions{Links: set.HasLinkFaults()})
		for i, ev := range events {
			// The schedule was generated against an empty shadow set, so
			// some events may be no-ops or infeasible here; skip those.
			if set.Apply(ev) != nil {
				continue
			}
			delta, ok := set.Since(gen)
			if !ok {
				t.Fatalf("set %d: journal gap", si)
			}
			rep, ok := RepairLevels(as, set, delta, Options{})
			if !ok {
				t.Fatalf("set %d step %d: repair refused", si, i)
			}
			assertSameFixpoint(t, fmt.Sprintf("set %d step %d (%v)", si, i, ev), rep, Compute(set, Options{}))
			as, gen = rep, set.Generation()
		}
	}
}

// FuzzRepairLevels feeds arbitrary churn schedules through the
// repair-vs-cold differential: any divergence between the incremental
// fixpoint and the from-scratch fixpoint is a crash.
func FuzzRepairLevels(f *testing.F) {
	f.Add(uint64(1), uint16(20), uint8(0), false)
	f.Add(uint64(42), uint16(40), uint8(1), true)
	f.Add(uint64(7), uint16(30), uint8(2), true)
	f.Add(uint64(1234567), uint16(60), uint8(3), false)
	f.Fuzz(func(t *testing.T, seed uint64, steps uint16, shape uint8, links bool) {
		var tp topo.Topology
		switch shape % 4 {
		case 0:
			tp = topo.MustCube(4)
		case 1:
			tp = topo.MustCube(5)
		case 2:
			tp = topo.MustMixed(2, 3, 2)
		default:
			tp = topo.MustMixed(3, 3, 3)
		}
		n := int(steps%200) + 1
		events := faults.ChurnSchedule(tp, seed, n, faults.ChurnOptions{Links: links})
		set := faults.NewSet(tp)
		as := Compute(set, Options{})
		gen := set.Generation()
		for i, ev := range events {
			if err := set.Apply(ev); err != nil {
				t.Fatalf("step %d %v: %v", i, ev, err)
			}
			delta, ok := set.Since(gen)
			if !ok {
				t.Fatalf("step %d: journal gap", i)
			}
			rep, ok := RepairLevels(as, set, delta, Options{})
			if !ok {
				t.Fatalf("step %d %v: repair refused", i, ev)
			}
			cold := Compute(set, Options{})
			for a := 0; a < tp.Nodes(); a++ {
				id := topo.NodeID(a)
				if rep.Level(id) != cold.Level(id) || rep.OwnLevel(id) != cold.OwnLevel(id) {
					t.Fatalf("step %d (%v): node %s repaired %d/%d cold %d/%d",
						i, ev, tp.Format(id), rep.Level(id), rep.OwnLevel(id),
						cold.Level(id), cold.OwnLevel(id))
				}
			}
			as, gen = rep, set.Generation()
		}
	})
}
