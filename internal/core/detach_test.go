package core

import (
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/faults"
	"repro/internal/topo"
)

// TestDetachFreezesFaultState pins the Detach contract: the copy keeps
// routing against the fault state at detach time no matter how the live
// set mutates afterwards, and it still verifies as a fixpoint (against
// its own frozen set).
func TestDetachFreezesFaultState(t *testing.T) {
	tp := topo.MustCube(4)
	set := faults.NewSet(tp)
	for _, a := range []topo.NodeID{3, 5, 12} {
		if err := set.FailNode(a); err != nil {
			t.Fatal(err)
		}
	}
	as := Compute(set, Options{})
	det := as.Detach()

	wantLevels := as.Levels()
	wantRoute := NewRouter(det, nil).Unicast(0, 15)

	// Churn the live set hard: recover everything, fail new nodes.
	for _, a := range []topo.NodeID{3, 5, 12} {
		if err := set.RecoverNode(a); err != nil {
			t.Fatal(err)
		}
	}
	if err := set.FailNodes(0, 7, 9); err != nil {
		t.Fatal(err)
	}

	if got := det.Levels(); !reflect.DeepEqual(got, wantLevels) {
		t.Fatalf("detached levels changed under live-set churn:\n got %v\nwant %v", got, wantLevels)
	}
	if det.Faults().NodeFaulty(0) {
		t.Fatal("detached set observed a post-detach fault")
	}
	if err := det.Verify(); err != nil {
		t.Fatalf("detached assignment no longer verifies: %v", err)
	}
	got := NewRouter(det, nil).Unicast(0, 15)
	if got.Outcome != wantRoute.Outcome || !reflect.DeepEqual(got.Path, wantRoute.Path) {
		t.Fatalf("detached route changed under churn: got %v/%v want %v/%v",
			got.Outcome, got.Path, wantRoute.Outcome, wantRoute.Path)
	}
	// The source failed in the live set after detach; the detached view
	// must still admit it.
	if r := NewRouter(det, nil).Unicast(0, 1); r.Err != nil {
		t.Fatalf("detached router rejected pre-churn-healthy source: %v", r.Err)
	}
}

// TestDetachEGSOwnLevels checks the two-view copy: with link faults the
// own table differs from the public one and both survive detach; without
// link faults the copy preserves the public/own aliasing.
func TestDetachEGSOwnLevels(t *testing.T) {
	tp := topo.MustCube(4)
	set := faults.NewSet(tp)
	if err := set.FailLink(0, 1); err != nil {
		t.Fatal(err)
	}
	as := Compute(set, Options{})
	det := as.Detach()
	for a := 0; a < tp.Nodes(); a++ {
		id := topo.NodeID(a)
		if det.Level(id) != as.Level(id) || det.OwnLevel(id) != as.OwnLevel(id) {
			t.Fatalf("node %d: detached levels (%d,%d) != original (%d,%d)",
				a, det.Level(id), det.OwnLevel(id), as.Level(id), as.OwnLevel(id))
		}
	}
	if det.Level(0) == det.OwnLevel(0) && as.Level(0) != as.OwnLevel(0) {
		t.Fatal("detach collapsed the N2 public/own distinction")
	}

	// No link faults: public and own alias in the original; the detached
	// copy must preserve that (one table, not two).
	set2 := faults.NewSet(tp)
	as2 := Compute(set2, Options{})
	det2 := as2.Detach()
	if &det2.public[0] != &det2.own[0] {
		t.Fatal("detach split the aliased public/own tables")
	}
}

// TestDetachStatsCarryOver checks that the run statistics (rounds,
// deltas, evals, repair markers) survive detach, and that the detached
// fault view's generation matches the original's at detach time.
func TestDetachStatsCarryOver(t *testing.T) {
	tp := topo.MustCube(5)
	set := faults.NewSet(tp)
	if err := set.FailNodes(1, 2, 4); err != nil {
		t.Fatal(err)
	}
	prev := Compute(set, Options{})
	gen := set.Generation()
	if err := set.FailNode(8); err != nil {
		t.Fatal(err)
	}
	delta, ok := set.Since(gen)
	if !ok {
		t.Fatal("journal gap")
	}
	as, ok := RepairLevels(prev, set, delta, Options{})
	if !ok {
		t.Fatal("repair refused")
	}
	det := as.Detach()
	if !det.Repaired() || det.Rounds() != as.Rounds() || det.Evals() != as.Evals() ||
		det.DirtyNodes() != as.DirtyNodes() || !reflect.DeepEqual(det.Deltas(), as.Deltas()) {
		t.Fatal("detach dropped run statistics")
	}
	if det.Faults().Generation() != set.Generation() {
		t.Fatalf("detached generation %d != live %d", det.Faults().Generation(), set.Generation())
	}
	// The detached fault view has no journal: it cannot replay history
	// it never kept.
	if _, ok := det.Faults().Since(gen); ok {
		t.Fatal("detached set replayed journal history it should not hold")
	}
}

// TestDetachedNodeFaultsFromOwnLevels pins the invariant a detached
// copy reads its node faults from: at every step of a churn run with
// link faults, on a binary and a generalized cube, the detached copy's
// NodeFaulty, its lazily built Faults() and the live set agree on every
// node, the built set carries the live generation, counts and links,
// and the live assignment verifies, own-level check included.
func TestDetachedNodeFaultsFromOwnLevels(t *testing.T) {
	for _, tp := range []topo.Topology{topo.MustCube(8), topo.MustMixed(3, 4, 2, 3)} {
		set := faults.NewSet(tp)
		as := Compute(set, Options{})
		for i, ev := range faults.ChurnSchedule(tp, 41, 200, faults.ChurnOptions{Links: true}) {
			gen := set.Generation()
			if err := set.Apply(ev); err != nil {
				t.Fatal(err)
			}
			delta, _ := set.Since(gen)
			rep, ok := RepairLevels(as, set, delta, Options{})
			if !ok {
				t.Fatalf("%v step %d: repair refused", tp, i)
			}
			as = rep
			if err := as.Verify(); err != nil {
				t.Fatalf("%v step %d: %v", tp, i, err)
			}
			det := as.Detach()
			view := det.Faults()
			for a := 0; a < tp.Nodes(); a++ {
				id := topo.NodeID(a)
				if live := set.NodeFaulty(id); det.NodeFaulty(id) != live || view.NodeFaulty(id) != live {
					t.Fatalf("%v step %d node %d: detached %v, built view %v, live %v",
						tp, i, a, det.NodeFaulty(id), view.NodeFaulty(id), live)
				}
			}
			if view.Generation() != set.Generation() || view.NodeFaults() != set.NodeFaults() ||
				!reflect.DeepEqual(view.FaultyLinks(), set.FaultyLinks()) {
				t.Fatalf("%v step %d: built view %s at generation %d, live %s at %d",
					tp, i, view, view.Generation(), set, set.Generation())
			}
			if det.Faults() != view {
				t.Fatalf("%v step %d: Faults built a second view", tp, i)
			}
		}
	}
}

// TestVerifyRejectsNonfaultyOwnLevelZero checks Verify's converse
// check: a nonfaulty node whose own level reads 0 would look faulty to a
// detached copy, and Verify reports it.
func TestVerifyRejectsNonfaultyOwnLevelZero(t *testing.T) {
	tp := topo.MustCube(4)
	set := faults.NewSet(tp)
	if err := set.FailNode(3); err != nil {
		t.Fatal(err)
	}
	as := Compute(set, Options{})
	if err := as.Verify(); err != nil {
		t.Fatal(err)
	}
	own := slices.Clone(as.own)
	own.write(make([]bool, len(own)), 5, 0, 4)
	as.own = own
	if err := as.Verify(); err == nil || !strings.Contains(err.Error(), "own level 0") {
		t.Fatalf("Verify = %v, want the own-level error", err)
	}
}
