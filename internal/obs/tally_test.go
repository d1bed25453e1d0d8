package obs

import (
	"reflect"
	"strings"
	"testing"
)

// TestRouteTallyPublishesLikeObserver feeds the same routes and
// session events to one registry through direct Counter and
// Histogram.Observe calls, one sequence per route, and to a tally
// published on a second registry, and compares the two snapshots. The
// routes cover every condition and outcome, error exits, detours, a
// walk that failed part-way after two hops, the longest route any
// topology has (a NavVector has 32 bits, so 32 preferred hops plus a
// detour's two), and a session's rerouted path of more than 64 hops.
// One registry's route_hamming holds odd bounds, a duplicate and a gap
// among them, so a tally's values merge into buckets the way Observe
// files them. The routes marked byC1 reach the tally through one
// CountC1 call for all their copies, the others through one Count call
// per copy.
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
		{cond: CondCodeC3, out: OutcomeFailure, hamming: 5, hops: 2, spares: 1, errExit: true},
		{cond: CondCodeC1, out: OutcomeOptimal, hamming: 32, hops: 32, byC1: true},
		{cond: CondCodeC1, out: OutcomeOptimal, hamming: 7, hops: 7, twice: true, byC1: true},
		{cond: CondCodeC3, out: OutcomeSuboptimal, hamming: 32, hops: 34, spares: 1, twice: true},
		{cond: CondCodeC2, out: OutcomeOptimal, hamming: 9, hops: 9},
		{cond: CondCodeC1, out: OutcomeSuboptimal, hamming: 3, hops: 70, spares: 4},
	}
	cond := map[CondCode]string{
		CondCodeNone: MetricAdmitNoneTotal, CondCodeC1: MetricAdmitC1Total,
		CondCodeC2: MetricAdmitC2Total, CondCodeC3: MetricAdmitC3Total,
	}
	outcome := map[OutcomeCode]string{
		OutcomeOptimal: MetricOutcomeOptimal, OutcomeSuboptimal: MetricOutcomeSuboptimal,
		OutcomeFailure: MetricOutcomeFailure,
	}
	for _, bounds := range [][]int64{nil, {7, 3, 3, 20}} {
		observed, tallied := NewRegistry(), NewRegistry()
		if bounds != nil {
			observed.Histogram(MetricHammingHist, bounds...)
			tallied.Histogram(MetricHammingHist, bounds...)
		}
		// Both registries hold every route_* metric, with its bounds.
		observed.RouteObserver()
		p := tallied.RouteObserver()
		var tally RouteTally
		for _, r := range routes {
			for k := 0; k < 1+btoi(r.twice); k++ {
				observed.Counter(MetricUnicastsTotal).Inc()
				observed.Counter(cond[r.cond]).Inc()
				observed.Histogram(MetricHammingHist).Observe(int64(r.hamming))
				observed.Counter(MetricHopsTotal).Add(int64(r.hops))
				observed.Counter(MetricSpareHopsTotal).Add(int64(r.spares))
				observed.Counter(outcome[r.out]).Inc()
				if r.errExit {
					observed.Counter(MetricForwardErrorsTotal).Inc()
				}
				if r.out != OutcomeFailure {
					observed.Histogram(MetricHopsHist).Observe(int64(r.hops))
					observed.Histogram(MetricStretchHist).Observe(int64(r.hops - r.hamming))
				}
				if !r.byC1 {
					tally.Count(r.cond, r.out, r.hamming, r.hops, r.spares, r.errExit)
				}
			}
			if r.byC1 {
				tally.CountC1(r.hamming, uint32(1+btoi(r.twice)))
			}
		}
		// A session's events besides its admission, hops and outcome.
		observed.Counter(MetricBlockedTotal).Add(2)
		observed.Counter(MetricReroutesTotal).Inc()
		observed.Counter(MetricRerouteAbortsTotal).Inc()
		tally.Blocked()
		tally.Reroute(false)
		tally.Blocked()
		tally.Reroute(true)

		p.Publish(&tally)
		if !reflect.DeepEqual(tally, RouteTally{}) {
			t.Fatal("Publish left the tally non-empty")
		}
		p.Publish(&tally) // an empty tally changes nothing
		want, got := routeSeries(observed.Snapshot()), routeSeries(tallied.Snapshot())
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("bounds %v: tally published\n%v\ndirect calls counted\n%v", bounds, got, want)
		}
		if n := got.Counters[MetricUnicastsTotal]; n != 15 {
			t.Fatalf("%s = %d, want 15", MetricUnicastsTotal, n)
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
