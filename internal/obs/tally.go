package obs

import "math/bits"

// RouteTally holds the route_* updates of a run of unicasts in plain
// fields, for the one goroutine that fills it, until
// RouteObserver.Publish adds them to the shared metrics at once. A
// route costs the tally a few plain increments; a publish costs one
// atomic add per counter and histogram bucket the run touched. A
// counter-only observer pays about thirteen atomic read-modify-writes
// and three bucket searches per route, on metrics every connection
// shares. A tally counts fewer than 2^32 routes between publishes.
type RouteTally struct {
	cond                 [4]int64 // by CondCode
	outcome              [3]int64 // by OutcomeCode - 1
	hops, spares, errors int64

	hamming, pathHops, stretch valueCounts
}

// Count adds one unicast: cond and out are its admission condition and
// outcome (OutcomeOptimal to OutcomeFailure), hamming its distance,
// hops its length and spares its detour hops, and errExit marks an
// error exit. These are the updates a counter-only observer's Admit,
// CountHops and Done make for the route. The distance and the length
// are below 64: a NavVector has 32 bits, so no route has more than 34
// hops.
func (t *RouteTally) Count(cond CondCode, out OutcomeCode, hamming, hops, spares int, errExit bool) {
	t.cond[cond]++
	t.hamming.add(hamming)
	t.outcome[out-1]++
	if errExit {
		t.errors++
	}
	if out != OutcomeFailure {
		t.hops += int64(hops)
		t.spares += int64(spares)
		t.pathHops.add(hops)
		t.stretch.add(hops - hamming)
	}
}

// CountC1 adds n unicasts that C1 admitted and that were delivered on
// optimal paths of hamming hops: what n calls of Count(CondCodeC1,
// OutcomeOptimal, hamming, hamming, 0, false) add, in one update per
// field.
func (t *RouteTally) CountC1(hamming int, n uint32) {
	t.cond[CondCodeC1] += int64(n)
	t.outcome[OutcomeOptimal-1] += int64(n)
	t.hops += int64(hamming) * int64(n)
	t.hamming.addN(hamming, n)
	t.pathHops.addN(hamming, n)
	t.stretch.addN(0, n)
}

// Publish adds t's counts to the observer's metrics and empties t. The
// observer's metrics take the whole tally in one update per touched
// counter and histogram bucket; a traced observer records no events
// from a tally.
func (o *RouteObserver) Publish(t *RouteTally) {
	if o != nil {
		o.unicasts.Add(t.cond[0] + t.cond[1] + t.cond[2] + t.cond[3])
		o.admitNone.Add(t.cond[CondCodeNone])
		o.admitC1.Add(t.cond[CondCodeC1])
		o.admitC2.Add(t.cond[CondCodeC2])
		o.admitC3.Add(t.cond[CondCodeC3])
		o.optimal.Add(t.outcome[OutcomeOptimal-1])
		o.suboptimal.Add(t.outcome[OutcomeSuboptimal-1])
		o.failure.Add(t.outcome[OutcomeFailure-1])
		o.hops.Add(t.hops)
		o.spares.Add(t.spares)
		o.errors.Add(t.errors)
		o.hammingH.addCounts(&t.hamming)
		o.hopsH.addCounts(&t.pathHops)
		o.stretchH.addCounts(&t.stretch)
	}
	*t = RouteTally{}
}

// valueCounts counts one histogram's observations by value: n[v]
// observations of v, with bit v of seen set once n[v] > 0, so a publish
// visits only the values seen.
type valueCounts struct {
	seen uint64
	n    [64]uint32
}

func (c *valueCounts) add(v int) { c.addN(v, 1) }

// addN adds n observations of v.
func (c *valueCounts) addN(v int, n uint32) {
	c.n[v] += n
	c.seen |= 1 << uint(v)
}

// addCounts adds the observations c counts: one atomic add per bucket
// they fall in, plus one each for the sum and the count.
func (h *Histogram) addCounts(c *valueCounts) {
	if h == nil || c.seen == 0 {
		return
	}
	var sum, count, run int64
	b := -1 // the bucket run counts for
	for m := c.seen; m != 0; m &= m - 1 {
		v := bits.TrailingZeros64(m)
		n := int64(c.n[v])
		// The values ascend, so their buckets do too: i is Observe's
		// bucket, the number of bounds below v.
		i := max(b, 0)
		for i < len(h.bounds) && h.bounds[i] < int64(v) {
			i++
		}
		if i != b {
			if b >= 0 {
				h.counts[b].Add(run)
			}
			b, run = i, 0
		}
		run += n
		sum += int64(v) * n
		count += n
	}
	h.counts[b].Add(run)
	h.sum.Add(sum)
	h.count.Add(count)
}
