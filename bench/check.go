package main

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/oracle"
	"repro/internal/topo"
	"repro/internal/wire"
)

// sample is one answer kept for the reference check.
type sample struct {
	pair wire.Pair
	gen  uint64 // snapshot generation the server reported
	got  wire.RouteInfo
}

// shapeErr checks one answer against the shape Theorem 2 guarantees:
// the reported distance is the pair's Hamming distance, an optimal
// route takes exactly H hops, a suboptimal one H+2, and a refused one
// none.
func shapeErr(t topo.Topology, q wire.Pair, got wire.RouteInfo) error {
	h := t.Distance(topo.NodeID(q.Src), topo.NodeID(q.Dst))
	want := -1
	switch core.Outcome(got.Outcome) {
	case core.Optimal:
		want = h
	case core.Suboptimal:
		want = h + 2
	case core.Failure:
		want = 0
	}
	if int(got.Hamming) != h || int(got.Hops) != want {
		return fmt.Errorf("pair %d->%d: outcome %d with %d hops at distance %d (reported %d) breaks Theorem 2",
			q.Src, q.Dst, got.Outcome, got.Hops, h, got.Hamming)
	}
	return nil
}

// pathErr checks an HTTP answer's node path: it runs from the pair's
// source to its destination in exactly the reported hops, and
// oracle.CheckPath finds it legal under the fault set.
func pathErr(set *faults.Set, q wire.Pair, got wire.RouteInfo, path []string) error {
	if core.Outcome(got.Outcome) == core.Failure {
		if len(path) != 0 {
			return fmt.Errorf("pair %d->%d: refused route carries a %d-node path", q.Src, q.Dst, len(path))
		}
		return nil
	}
	t := set.Topology()
	nodes := make([]topo.NodeID, len(path))
	for i, s := range path {
		a, err := t.Parse(s)
		if err != nil {
			return err
		}
		nodes[i] = a
	}
	if len(nodes) != int(got.Hops)+1 || nodes[0] != topo.NodeID(q.Src) || nodes[len(nodes)-1] != topo.NodeID(q.Dst) {
		return fmt.Errorf("pair %d->%d: path %v does not match the %d reported hops", q.Src, q.Dst, path, got.Hops)
	}
	return oracle.CheckPath(set, nodes)
}

// refInfo is the reference router's answer for q in wire encoding.
func refInfo(rt *core.Router, q wire.Pair) wire.RouteInfo {
	r := rt.Unicast(topo.NodeID(q.Src), topo.NodeID(q.Dst))
	return wire.RouteInfo{
		Outcome: uint8(r.Outcome),
		Cond:    uint8(r.Condition),
		Hamming: uint16(r.Hamming),
		Hops:    uint16(r.Len()),
	}
}

// verdict judges an answer reported at generation G. It must match the
// reference at G, or else the reference at G-1: the server reads the
// generation after routing, so a publish landing mid-request labels a
// G-1 route with G. That case is counted as skew; anything else is a
// mismatch.
func verdict(got, atGen, atPrev wire.RouteInfo, hasPrev bool) (skew, ok bool) {
	if got == atGen {
		return false, true
	}
	if hasPrev && got == atPrev {
		return true, true
	}
	return false, false
}

// gateReport is the reference check's outcome.
type gateReport struct {
	checked, skew, mismatches int
	first                     string
}

// checkSamples checks every sample against a reference core.Router for
// the generation it was answered at. The reference starts from a cold
// core.Compute of the starting fault set and replays history, one
// event per generation, repairing with core.RepairLevels and
// cross-checking the repaired levels against a cold Compute every 60
// generations. An answer outside [g0, g0+len(history)] is a mismatch.
func checkSamples(set *faults.Set, g0 uint64, history []faults.ChurnEvent, samples []sample) gateReport {
	var rep gateReport
	miss := func(format string, args ...any) {
		if rep.mismatches == 0 {
			rep.first = fmt.Sprintf(format, args...)
		}
		rep.mismatches++
	}
	live := set.Clone()
	if live.Generation() != g0 {
		miss("server started at generation %d, inputs at %d", g0, live.Generation())
		return rep
	}
	sort.SliceStable(samples, func(i, j int) bool { return samples[i].gen < samples[j].gen })
	as := core.Compute(live, core.Options{Workers: -1})
	cur := core.NewRouter(as.Detach(), nil)
	var prev *core.Router
	next := 0
	for _, s := range samples {
		if s.gen < g0 || s.gen > g0+uint64(len(history)) {
			miss("answer at generation %d outside [%d, %d]", s.gen, g0, g0+uint64(len(history)))
			continue
		}
		for live.Generation() < s.gen {
			gen := live.Generation()
			if err := live.Apply(history[next]); err != nil {
				miss("replaying event %d: %v", next, err)
				return rep
			}
			next++
			delta, ok := live.Since(gen)
			repaired := false
			if ok {
				as, repaired = core.RepairLevels(as, live, delta, core.Options{})
			}
			if !repaired {
				as = core.Compute(live, core.Options{Workers: -1})
			} else if next%60 == 0 && !equalLevels(as, core.Compute(live, core.Options{Workers: -1})) {
				miss("repaired levels differ from a cold Compute at generation %d", live.Generation())
				return rep
			}
			prev, cur = cur, core.NewRouter(as.Detach(), nil)
		}
		var atPrev wire.RouteInfo
		hasPrev := prev != nil && s.gen > g0
		if hasPrev {
			atPrev = refInfo(prev, s.pair)
		}
		skew, ok := verdict(s.got, refInfo(cur, s.pair), atPrev, hasPrev)
		rep.checked++
		switch {
		case !ok:
			miss("pair %d->%d at generation %d: got %+v, reference %+v", s.pair.Src, s.pair.Dst, s.gen, s.got, refInfo(cur, s.pair))
		case skew:
			rep.skew++
		}
	}
	return rep
}

func equalLevels(a, b *core.Assignment) bool {
	t := a.Topology()
	for n := 0; n < t.Nodes(); n++ {
		id := topo.NodeID(n)
		if a.Level(id) != b.Level(id) || a.OwnLevel(id) != b.OwnLevel(id) {
			return false
		}
	}
	return true
}
