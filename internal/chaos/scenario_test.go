package chaos

import (
	"fmt"
	"testing"

	"repro/internal/faults"
	"repro/internal/topo"
)

// scenarioEvents builds the deterministic schedule for one profile,
// failing the test on generator errors.
func scenarioEvents(t *testing.T, tp topo.Topology, p faults.ScenarioProfile, seed uint64) []faults.ChurnEvent {
	t.Helper()
	events, err := faults.ScenarioSchedule(tp, p, seed, faults.ScenarioOptions{Waves: 2})
	if err != nil {
		t.Fatalf("%s: %v", p, err)
	}
	return events
}

// TestScenarioChurnChaosAllProfiles runs the full differential —
// repaired ≡ cold bit-for-bit, exhaustive Theorem-2 oracle realization,
// routed-path legality — at every event of every correlated-fault
// profile on Q4 and Q5. This is the issue's core acceptance criterion:
// the chaos harness holds under subcube outages, dimension cuts,
// rolling waves, flapping, and partitions, not only uniform churn —
// including the partition steps where the cube is disconnected and
// every safe set is empty (Theorem 4).
func TestScenarioChurnChaosAllProfiles(t *testing.T) {
	for _, dim := range []int{4, 5} {
		tp := topo.MustCube(dim)
		for _, p := range faults.ScenarioProfiles() {
			t.Run(fmt.Sprintf("Q%d/%s", dim, p), func(t *testing.T) {
				events := scenarioEvents(t, tp, p, uint64(300+dim))
				rep, err := RunEvents(tp, events, Options{
					Unicasts: 4,
					Seed:     uint64(300 + dim),
				})
				if err != nil {
					t.Fatal(err)
				}
				if rep.Steps != len(events) {
					t.Fatalf("ran %d steps, want %d", rep.Steps, len(events))
				}
				if rep.Routes == 0 {
					t.Fatal("harness routed nothing")
				}
				// Partition waves must actually exercise the
				// unreachable path: cross-partition unicasts fail.
				if p == faults.ScenarioPartition && rep.Failures == 0 {
					t.Error("partition scenario produced no routing failures")
				}
			})
		}
	}
}

// TestScenarioChurnChaosParallelEquality replays every profile twice at
// once, on two goroutines, and requires not just that both pass the
// differential but that their work accounting is identical: a replay
// is a function of its schedule and seed. Under -race (CI's test job)
// this doubles as the data-race check for concurrent scenario replays.
func TestScenarioChurnChaosParallelEquality(t *testing.T) {
	tp := topo.MustCube(5)
	for _, p := range faults.ScenarioProfiles() {
		t.Run(string(p), func(t *testing.T) {
			events := scenarioEvents(t, tp, p, 41)
			opts := Options{Unicasts: 2, Seed: 41}
			type result struct {
				rep *Report
				err error
			}
			other := make(chan result, 1)
			go func() {
				rep, err := RunEvents(tp, events, opts)
				other <- result{rep, err}
			}()
			first, err := RunEvents(tp, events, opts)
			if err != nil {
				t.Fatalf("first replay: %v", err)
			}
			second := <-other
			if second.err != nil {
				t.Fatalf("second replay: %v", second.err)
			}
			if *first != *second.rep {
				t.Errorf("two replays of one schedule diverged:\n%+v\n%+v", first, second.rep)
			}
		})
	}
}

// TestRunEventsRejectsEmptySchedule pins the explicit-schedule entry
// point's contract.
func TestRunEventsRejectsEmptySchedule(t *testing.T) {
	if _, err := RunEvents(topo.MustCube(4), nil, Options{Seed: 1}); err == nil {
		t.Fatal("RunEvents accepted an empty schedule")
	}
}
