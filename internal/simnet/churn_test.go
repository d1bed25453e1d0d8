package simnet

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/topo"
)

// checkStepAgreement compares one churn step's distributed agreement to
// the sequential fixpoint on the same fault state.
func checkStepAgreement(t *testing.T, name string, tp topo.Topology, shadow *faults.Set, step ChurnStep) {
	t.Helper()
	as := core.Compute(shadow, core.Options{})
	for a := 0; a < tp.Nodes(); a++ {
		id := topo.NodeID(a)
		wantPub, wantOwn := as.Level(id), as.OwnLevel(id)
		if shadow.NodeFaulty(id) {
			wantPub, wantOwn = 0, 0
		}
		if step.Levels[a] != wantPub || step.OwnLevels[a] != wantOwn {
			t.Fatalf("%s: node %s engine %d/%d, core %d/%d",
				name, tp.Format(id), step.Levels[a], step.OwnLevels[a], wantPub, wantOwn)
		}
	}
}

// runChurnAgainstCore replays a schedule through the engine and checks
// the post-exchange agreement against core.Compute after every event.
func runChurnAgainstCore(t *testing.T, tp topo.Topology, events []faults.ChurnEvent, opts ChurnRunOptions) *ChurnReport {
	t.Helper()
	e := New(faults.NewSet(tp))
	defer e.Close()
	rep, err := e.RunChurn(events, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Steps) != len(events) {
		t.Fatalf("ran %d steps, want %d", len(rep.Steps), len(events))
	}
	shadow := faults.NewSet(tp)
	for i, step := range rep.Steps {
		if err := shadow.Apply(step.Event); err != nil {
			t.Fatalf("step %d shadow apply %v: %v", i, step.Event, err)
		}
		checkStepAgreement(t, fmt.Sprintf("step %d (%v)", i, step.Event), tp, shadow, step)
	}
	return rep
}

// TestChurnSyncMatchesCore drives node+link churn through the
// synchronous protocol on binary and generalized shapes.
func TestChurnSyncMatchesCore(t *testing.T) {
	shapes := []topo.Topology{topo.MustCube(4), topo.MustMixed(2, 3, 2)}
	for si, tp := range shapes {
		events := faults.ChurnSchedule(tp, uint64(31+si), 25, faults.ChurnOptions{Links: true})
		runChurnAgainstCore(t, tp, events, ChurnRunOptions{Unicasts: 2, Seed: 5})
	}
}

// TestChurnAsyncMatchesCore is the issue's async churn mode:
// fail/recover events interleaved with asynchronous GS message
// exchange, checked against the sequential fixpoint at every step.
func TestChurnAsyncMatchesCore(t *testing.T) {
	shapes := []topo.Topology{topo.MustCube(4), topo.MustCube(5), topo.MustMixed(2, 3, 2)}
	for si, tp := range shapes {
		events := faults.ChurnSchedule(tp, uint64(47+si), 25, faults.ChurnOptions{Links: true})
		rep := runChurnAgainstCore(t, tp, events, ChurnRunOptions{Async: true, Unicasts: 2, Seed: 9})
		for i, step := range rep.Steps {
			if step.Rounds != 0 {
				t.Fatalf("step %d: async step reports sync rounds %d", i, step.Rounds)
			}
		}
	}
}

// TestChurnMetrics checks the churn counters the observability layer
// gains with this mode.
func TestChurnMetrics(t *testing.T) {
	tp := topo.MustCube(4)
	e := New(faults.NewSet(tp))
	defer e.Close()
	reg := obs.NewRegistry()
	e.SetObs(reg)
	events := faults.ChurnSchedule(tp, 3, 10, faults.ChurnOptions{})
	if _, err := e.RunChurn(events, ChurnRunOptions{Async: true}); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("simnet_churn_events_total").Value(); got != 10 {
		t.Fatalf("churn events counter = %d, want 10", got)
	}
	if reg.Counter("simnet_churn_messages_total").Value() == 0 {
		t.Fatal("churn messages counter stayed zero")
	}
}

// TestReviveNode pins the revive contract directly: revive errors on
// live or never-faulty nodes, and a killed node rejoins the agreement
// with correct levels after one exchange.
func TestReviveNode(t *testing.T) {
	tp := topo.MustCube(4)
	e := New(faults.NewSet(tp))
	defer e.Close()
	if err := e.ReviveNode(3); err == nil {
		t.Fatal("revived a live node")
	}
	if err := e.KillNode(3); err != nil {
		t.Fatal(err)
	}
	e.RunGS(0)
	if err := e.ReviveNode(3); err != nil {
		t.Fatal(err)
	}
	e.RunGS(0)
	lv := e.Levels()
	for a, l := range lv {
		if l != tp.Dim() {
			t.Fatalf("node %d level %d after full recovery, want %d", a, l, tp.Dim())
		}
	}
}

// TestNodeOutsideTopologyIsAnError pins that KillNode, ReviveNode and a
// node-fail Apply answer a node outside the topology with an error, on
// Q4 and on GH(3x2x4), at the first ID past the last node and far past
// it.
func TestNodeOutsideTopologyIsAnError(t *testing.T) {
	for _, tp := range []topo.Topology{topo.MustCube(4), topo.MustMixed(4, 2, 3)} {
		e := New(faults.NewSet(tp))
		for _, a := range []topo.NodeID{topo.NodeID(tp.Nodes()), 1 << 20} {
			for _, c := range []struct {
				name string
				call func() error
			}{
				{"KillNode", func() error { return e.KillNode(a) }},
				{"ReviveNode", func() error { return e.ReviveNode(a) }},
				{"Apply", func() error { return e.Apply(faults.ChurnEvent{Kind: faults.DeltaFailNode, A: a}) }},
			} {
				if err := c.call(); err == nil {
					t.Errorf("%v: %s(%d) returned no error", tp, c.name, a)
				}
			}
		}
		e.Close()
	}
}

// FuzzChurnSchedule feeds arbitrary schedules through the distributed
// engine: after every event and exchange, the engine's agreement must
// equal the sequential fixpoint (repaired or cold — they are the same
// by the core differential suite).
func FuzzChurnSchedule(f *testing.F) {
	f.Add(uint64(1), uint16(10), false, false)
	f.Add(uint64(2), uint16(20), true, true)
	f.Add(uint64(99), uint16(15), true, false)
	f.Add(uint64(31337), uint16(25), false, true)
	f.Fuzz(func(t *testing.T, seed uint64, steps uint16, links, async bool) {
		tp := topo.MustCube(4)
		n := int(steps%30) + 1
		events := faults.ChurnSchedule(tp, seed, n, faults.ChurnOptions{Links: links})
		e := New(faults.NewSet(tp))
		defer e.Close()
		rep, err := e.RunChurn(events, ChurnRunOptions{Async: async, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		shadow := faults.NewSet(tp)
		for i, step := range rep.Steps {
			if err := shadow.Apply(step.Event); err != nil {
				t.Fatalf("step %d shadow apply %v: %v", i, step.Event, err)
			}
			as := core.Compute(shadow, core.Options{})
			for a := 0; a < tp.Nodes(); a++ {
				id := topo.NodeID(a)
				wantPub, wantOwn := as.Level(id), as.OwnLevel(id)
				if shadow.NodeFaulty(id) {
					wantPub, wantOwn = 0, 0
				}
				if step.Levels[a] != wantPub || step.OwnLevels[a] != wantOwn {
					t.Fatalf("step %d (%v): node %s engine %d/%d, core %d/%d",
						i, step.Event, tp.Format(id),
						step.Levels[a], step.OwnLevels[a], wantPub, wantOwn)
				}
			}
		}
	})
}
