package chaos

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/oracle"
	"repro/internal/stats"
	"repro/internal/topo"
)

// Options configure one churn run.
type Options struct {
	// Churn shapes the generated schedule (faults.ChurnSchedule).
	Churn faults.ChurnOptions
	// OracleSources >0 samples that many BFS sources per step for the
	// Theorem-2 realization check instead of sweeping all nodes — the
	// check is quadratic, and sampling keeps big-cube runs affordable
	// without weakening any sampled source's assertion. 0 checks all.
	OracleSources int
	// Unicasts is the number of random routed unicasts per step whose
	// paths are checked for legality. 0 disables routing checks.
	Unicasts int
	// Seed drives both the schedule and the sampling, so a run is fully
	// reproducible from (topology, steps, Options).
	Seed uint64
}

// Report aggregates the work statistics of a completed churn run; the
// E16 table and BENCH_3.json are built from these numbers.
type Report struct {
	Steps int
	// RepairEvals and ColdEvals total the NODE_STATUS evaluations spent
	// by incremental repair vs. cold recomputation over the whole run —
	// the work ratio the issue's acceptance criterion bounds.
	RepairEvals int
	ColdEvals   int
	// RepairRounds and ColdRounds total the iteration rounds.
	RepairRounds int
	ColdRounds   int
	// DirtyNodes totals the dirty-frontier slots the repairs processed.
	DirtyNodes int
	// Routing outcome tallies (only when Options.Unicasts > 0).
	Routes, Optimal, Suboptimal, Failures int
}

// Run generates a steps-long churn schedule over tp and replays it,
// repairing incrementally after every event and asserting the three
// contracts above. It returns the aggregate report, or an error
// describing the first violation (step, event, node) — an error here
// means a real bug in the level machinery, never a statistical fluke.
func Run(tp topo.Topology, steps int, opts Options) (*Report, error) {
	events := faults.ChurnSchedule(tp, opts.Seed, steps, opts.Churn)
	if len(events) == 0 {
		return nil, fmt.Errorf("chaos: empty schedule for %d steps", steps)
	}
	return RunEvents(tp, events, opts)
}

// RunEvents replays an explicit event schedule — a ChurnSchedule, a
// correlated-fault ScenarioSchedule, or a monitor declaration journal —
// with the same per-event differential Run applies: incremental repair
// vs cold recompute bit-for-bit, Theorem-2 oracle realization, and
// routed-path legality. Options.Churn is ignored (the schedule is
// already fixed); Seed still drives oracle sampling and unicast draws.
func RunEvents(tp topo.Topology, events []faults.ChurnEvent, opts Options) (*Report, error) {
	if len(events) == 0 {
		return nil, fmt.Errorf("chaos: empty event schedule")
	}
	set := faults.NewSet(tp)
	prev := core.Compute(set, core.Options{})
	gen := set.Generation()
	rng := stats.NewRNG(opts.Seed ^ 0x9e3779b97f4a7c15)
	rep := &Report{Steps: len(events)}

	for i, ev := range events {
		if err := set.Apply(ev); err != nil {
			return nil, fmt.Errorf("chaos: step %d apply %v: %v", i, ev, err)
		}
		delta, ok := set.Since(gen)
		if !ok {
			return nil, fmt.Errorf("chaos: step %d: journal gap after one event", i)
		}
		repaired, ok := core.RepairLevels(prev, set, delta, core.Options{})
		if !ok {
			return nil, fmt.Errorf("chaos: step %d (%v): repair refused", i, ev)
		}
		cold := core.Compute(set, core.Options{})

		// (a) bit-for-bit equality with the cold fixpoint.
		for a := 0; a < tp.Nodes(); a++ {
			id := topo.NodeID(a)
			if repaired.Level(id) != cold.Level(id) || repaired.OwnLevel(id) != cold.OwnLevel(id) {
				return nil, fmt.Errorf(
					"chaos: step %d (%v): node %s repaired %d/%d, cold %d/%d",
					i, ev, tp.Format(id), repaired.Level(id), repaired.OwnLevel(id),
					cold.Level(id), cold.OwnLevel(id))
			}
		}

		// (b) every claimed level is realized by actual paths.
		if err := oracle.CheckLevelsFrom(repaired, sampleSources(tp, rng, opts.OracleSources)); err != nil {
			return nil, fmt.Errorf("chaos: step %d (%v): %v", i, ev, err)
		}

		// (c) routed paths are legal under the current fault state.
		if opts.Unicasts > 0 {
			if err := checkUnicasts(set, repaired, rng, opts.Unicasts, rep); err != nil {
				return nil, fmt.Errorf("chaos: step %d (%v): %v", i, ev, err)
			}
		}

		rep.RepairEvals += repaired.Evals()
		rep.ColdEvals += cold.Evals()
		rep.RepairRounds += repaired.Rounds()
		rep.ColdRounds += cold.Rounds()
		rep.DirtyNodes += repaired.DirtyNodes()
		prev, gen = repaired, set.Generation()
	}
	return rep, nil
}

// sampleSources draws count distinct BFS sources (nil = all, the
// CheckLevelsFrom convention).
func sampleSources(tp topo.Topology, rng *stats.RNG, count int) []topo.NodeID {
	if count <= 0 || count >= tp.Nodes() {
		return nil
	}
	out := make([]topo.NodeID, 0, count)
	for _, a := range rng.Sample(tp.Nodes(), count) {
		out = append(out, topo.NodeID(a))
	}
	return out
}

// checkUnicasts routes count random source/destination pairs on the
// repaired assignment and judges every produced path with the oracle.
func checkUnicasts(set *faults.Set, as *core.Assignment, rng *stats.RNG, count int, rep *Report) error {
	tp := set.Topology()
	router := core.NewRouter(as, nil)
	for u := 0; u < count; u++ {
		src, ok := randomNonfaulty(set, rng)
		if !ok {
			return nil // everything faulty; nothing to route
		}
		dst, ok := randomNonfaulty(set, rng)
		if !ok || src == dst {
			continue
		}
		r := router.Unicast(src, dst)
		rep.Routes++
		switch r.Outcome {
		case core.Optimal:
			rep.Optimal++
		case core.Suboptimal:
			rep.Suboptimal++
		case core.Failure:
			rep.Failures++
			continue
		default:
			return fmt.Errorf("unicast %s->%s: unclassified outcome %v",
				tp.Format(src), tp.Format(dst), r.Outcome)
		}
		if err := oracle.CheckPath(set, r.Path); err != nil {
			return fmt.Errorf("unicast %s->%s: %v", tp.Format(src), tp.Format(dst), err)
		}
		if r.Outcome == core.Optimal && r.Len() != tp.Distance(src, dst) {
			return fmt.Errorf("unicast %s->%s: optimal route of length %d, distance %d",
				tp.Format(src), tp.Format(dst), r.Len(), tp.Distance(src, dst))
		}
	}
	return nil
}

// randomNonfaulty draws a uniformly random nonfaulty node, or ok=false
// when none exists.
func randomNonfaulty(set *faults.Set, rng *stats.RNG) (topo.NodeID, bool) {
	tp := set.Topology()
	alive := tp.Nodes() - set.NodeFaults()
	if alive <= 0 {
		return 0, false
	}
	k := rng.Intn(alive)
	for a := 0; a < tp.Nodes(); a++ {
		if set.NodeFaulty(topo.NodeID(a)) {
			continue
		}
		if k == 0 {
			return topo.NodeID(a), true
		}
		k--
	}
	return 0, false
}
