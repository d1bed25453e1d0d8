package faults

import (
	"fmt"

	"repro/internal/stats"
	"repro/internal/topo"
)

// Fault churn: deterministic randomized schedules of interleaved fail
// and recover events, the workload of the incremental-repair and chaos
// tests. A schedule is generated against a scratch fault set so every
// event is feasible (never failing an already-faulty node, never
// recovering a healthy link) when replayed from an empty set in order.

// ChurnEvent is one scheduled fault-state mutation. Kind selects the
// mutation; A is the node (node events) or the low link endpoint, B the
// high link endpoint (link events).
type ChurnEvent struct {
	Kind DeltaKind
	A, B topo.NodeID
}

// String renders the event with raw node IDs.
func (ev ChurnEvent) String() string {
	switch ev.Kind {
	case DeltaFailLink, DeltaRecoverLink:
		return fmt.Sprintf("%s(%d,%d)", ev.Kind, ev.A, ev.B)
	default:
		return fmt.Sprintf("%s(%d)", ev.Kind, ev.A)
	}
}

// Apply executes the event against the set.
func (s *Set) Apply(ev ChurnEvent) error {
	switch ev.Kind {
	case DeltaFailNode:
		return s.FailNode(ev.A)
	case DeltaRecoverNode:
		return s.RecoverNode(ev.A)
	case DeltaFailLink:
		return s.FailLink(ev.A, ev.B)
	case DeltaRecoverLink:
		return s.RecoverLink(ev.A, ev.B)
	}
	return fmt.Errorf("faults: unknown churn event kind %d", ev.Kind)
}

// ChurnOptions tune schedule generation. The zero value yields a
// node-only schedule bounded at 2n simultaneous faults.
type ChurnOptions struct {
	// Links enables link fail/recover events alongside node events,
	// with at most n link faults at once.
	Links bool
	// MaxNodeFaults caps simultaneous node faults (0 means 2n). Once at
	// the cap the generator recovers instead of failing.
	MaxNodeFaults int
}

// churnMinHealthy is the number of nodes a churn schedule keeps alive,
// so routing steps always have endpoints to work with.
const churnMinHealthy = 2

// ChurnSchedule generates a deterministic steps-long schedule of
// feasible fail/recover events over topology t using the splitmix64
// generator seeded by seed. The same (t, seed, steps, opts) always
// yields the same schedule, on every platform — the property the chaos
// tests and EXPERIMENTS.md pin their measurements on.
func ChurnSchedule(t topo.Topology, seed uint64, steps int, opts ChurnOptions) []ChurnEvent {
	maxNode := opts.MaxNodeFaults
	if maxNode <= 0 {
		maxNode = 2 * t.Dim()
	}
	rng := stats.NewRNG(seed)
	shadow := NewSet(t)
	events := make([]ChurnEvent, 0, steps)
	for len(events) < steps {
		ev, ok := nextChurnEvent(shadow, rng, opts.Links, maxNode)
		if !ok {
			break // topology too small for any feasible event
		}
		if err := shadow.Apply(ev); err != nil {
			panic(fmt.Sprintf("faults: generated infeasible churn event %v: %v", ev, err))
		}
		events = append(events, ev)
	}
	return events
}

// nextChurnEvent draws one feasible event. Kind weights: failures are
// preferred while under the caps (roughly 60/40 fail/recover), which
// keeps the fault population hovering near the cap — the interesting
// regime for safety levels.
func nextChurnEvent(s *Set, rng *stats.RNG, links bool, maxNode int) (ChurnEvent, bool) {
	canFailNode := s.NodeFaults() < maxNode && s.t.Nodes()-s.NodeFaults() > churnMinHealthy
	canRecoverNode := s.NodeFaults() > 0
	canFailLink := links && s.LinkFaults() < s.t.Dim()
	canRecoverLink := links && s.LinkFaults() > 0
	for try := 0; try < 16; try++ {
		switch rng.Intn(10) {
		case 0, 1, 2, 3: // fail node
			if !canFailNode {
				continue
			}
			healthy := make([]topo.NodeID, 0, s.t.Nodes()-s.NodeFaults())
			for a := 0; a < s.t.Nodes(); a++ {
				if !s.NodeFaulty(topo.NodeID(a)) {
					healthy = append(healthy, topo.NodeID(a))
				}
			}
			return ChurnEvent{Kind: DeltaFailNode, A: healthy[rng.Intn(len(healthy))]}, true
		case 4, 5, 6: // recover node
			if !canRecoverNode {
				continue
			}
			down := s.FaultyNodes()
			return ChurnEvent{Kind: DeltaRecoverNode, A: down[rng.Intn(len(down))]}, true
		case 7, 8: // fail link
			if !canFailLink {
				continue
			}
			a := topo.NodeID(rng.Intn(s.t.Nodes()))
			d := rng.Intn(s.t.Dim())
			sibs := s.t.Siblings(a, d, nil)
			b := sibs[rng.Intn(len(sibs))]
			if s.LinkFaulty(a, b) {
				continue
			}
			l := Link{a, b}.Normalize()
			return ChurnEvent{Kind: DeltaFailLink, A: l.A, B: l.B}, true
		default: // recover link
			if !canRecoverLink {
				continue
			}
			up := s.FaultyLinks()
			l := up[rng.Intn(len(up))]
			return ChurnEvent{Kind: DeltaRecoverLink, A: l.A, B: l.B}, true
		}
	}
	// Weighted draw starved (e.g. caps reached with links disabled);
	// fall back to the first feasible kind in a fixed order.
	switch {
	case canRecoverNode:
		down := s.FaultyNodes()
		return ChurnEvent{Kind: DeltaRecoverNode, A: down[rng.Intn(len(down))]}, true
	case canFailNode:
		for a := 0; a < s.t.Nodes(); a++ {
			if !s.NodeFaulty(topo.NodeID(a)) {
				return ChurnEvent{Kind: DeltaFailNode, A: topo.NodeID(a)}, true
			}
		}
	case canRecoverLink:
		up := s.FaultyLinks()
		l := up[0]
		return ChurnEvent{Kind: DeltaRecoverLink, A: l.A, B: l.B}, true
	}
	return ChurnEvent{}, false
}
