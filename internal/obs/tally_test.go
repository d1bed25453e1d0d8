package obs

import (
	"reflect"
	"strings"
	"testing"
)

// TestRouteTallyPublishesLikeObserver feeds the same routes to a
// counter-only observer, one call sequence per route, and to a tally
// published on a second registry, and compares the two snapshots. The
// routes cover every condition and outcome, error exits, detours, and
// the longest route any topology has (a NavVector has 32 bits, so 32
// preferred hops plus a detour's two). One registry's route_hamming
// holds odd bounds, a duplicate and a gap among them, so a tally's
// values merge into buckets the way Observe files them. The routes
// marked byC1 reach the tally through one CountC1 call for all their
// copies, the others through one Count call per copy.
func TestRouteTallyPublishesLikeObserver(t *testing.T) {
	type route struct {
		cond                 CondCode
		out                  OutcomeCode
		hamming, hops        int
		spares               int
		errExit, twice, byC1 bool
	}
	routes := []route{
		{cond: CondCodeC1, out: OutcomeOptimal, hamming: 3, hops: 3},
		{cond: CondCodeC1, out: OutcomeOptimal},
		{cond: CondCodeC2, out: OutcomeOptimal, hamming: 5, hops: 5, twice: true},
		{cond: CondCodeC3, out: OutcomeSuboptimal, hamming: 4, hops: 6, spares: 1},
		{cond: CondCodeNone, out: OutcomeFailure, hamming: 6},
		{cond: CondCodeNone, out: OutcomeFailure, hamming: 2, errExit: true},
		{cond: CondCodeC1, out: OutcomeOptimal, hamming: 32, hops: 32, byC1: true},
		{cond: CondCodeC1, out: OutcomeOptimal, hamming: 7, hops: 7, twice: true, byC1: true},
		{cond: CondCodeC3, out: OutcomeSuboptimal, hamming: 32, hops: 34, spares: 1, twice: true},
		{cond: CondCodeC2, out: OutcomeOptimal, hamming: 9, hops: 9},
	}
	for _, bounds := range [][]int64{nil, {7, 3, 3, 20}} {
		observed, tallied := NewRegistry(), NewRegistry()
		if bounds != nil {
			observed.Histogram(MetricHammingHist, bounds...)
			tallied.Histogram(MetricHammingHist, bounds...)
		}
		o, p := observed.RouteObserver(), tallied.RouteObserver()
		var tally RouteTally
		for _, r := range routes {
			for k := 0; k < 1+btoi(r.twice); k++ {
				o.Admit(0, r.hamming, 0, r.cond.String(), r.out.String())
				o.CountHops(r.hops, r.spares)
				note := ""
				if r.errExit {
					note = "error exit"
				}
				o.Done(0, r.cond.String(), r.out.String(), r.hops, r.hamming, 0, note)
				if !r.byC1 {
					tally.Count(r.cond, r.out, r.hamming, r.hops, r.spares, r.errExit)
				}
			}
			if r.byC1 {
				tally.CountC1(r.hamming, uint32(1+btoi(r.twice)))
			}
		}
		p.Publish(&tally)
		if tally != (RouteTally{}) {
			t.Fatal("Publish left the tally non-empty")
		}
		p.Publish(&tally) // an empty tally changes nothing
		want, got := routeSeries(observed.Snapshot()), routeSeries(tallied.Snapshot())
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("bounds %v: tally published\n%v\nobserver counted\n%v", bounds, got, want)
		}
		if n := got.Counters[MetricUnicastsTotal]; n != 13 {
			t.Fatalf("%s = %d, want 13", MetricUnicastsTotal, n)
		}
	}
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// routeSeries keeps a snapshot's route_* counters and histograms.
func routeSeries(s *Snapshot) *Snapshot {
	out := &Snapshot{Counters: map[string]int64{}, Histograms: map[string]HistSnapshot{}}
	for name, v := range s.Counters {
		if strings.HasPrefix(name, "route_") {
			out.Counters[name] = v
		}
	}
	for name, h := range s.Histograms {
		if strings.HasPrefix(name, "route_") {
			out.Histograms[name] = h
		}
	}
	return out
}
