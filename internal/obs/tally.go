package obs

import "math/bits"

// RouteTally holds route_* updates in plain fields, for the one
// goroutine that fills it, until RouteObserver.Publish adds them to the
// shared metrics at once. It is the one place an answer becomes route_*
// updates: a unicast decided at the source or walked, a batch of them,
// and a session's admission, hops, blockages, reroutes and outcome. A
// route costs the tally a few plain increments; a publish costs one
// atomic add per counter and histogram bucket the tally touched. A
// tally counts fewer than 2^32 routes between publishes.
type RouteTally struct {
	cond    [4]int64 // by CondCode
	outcome [3]int64 // by OutcomeCode - 1

	hops, spares, errors      int64
	blocked, reroutes, aborts int64

	hamming, pathHops, stretch valueCounts
}

// Admit adds one admission at the source: cond is the condition that
// held (CondCodeNone when none did) and hamming the distance.
func (t *RouteTally) Admit(cond CondCode, hamming int) {
	t.cond[cond]++
	t.hamming.add(hamming)
}

// Hops adds hops link crossings, spares of them detour hops.
func (t *RouteTally) Hops(hops, spares int) {
	t.hops += int64(hops)
	t.spares += int64(spares)
}

// Outcome adds one resolved unicast: out is its outcome (OutcomeOptimal
// to OutcomeFailure), pathLen the hops it traveled, hamming the
// distance it was admitted at, and errExit marks an error exit. A
// failure adds to neither the path-length nor the stretch histogram.
func (t *RouteTally) Outcome(out OutcomeCode, pathLen, hamming int, errExit bool) {
	t.outcome[out-1]++
	if errExit {
		t.errors++
	}
	if out != OutcomeFailure {
		t.pathHops.add(pathLen)
		t.stretch.add(pathLen - hamming)
	}
}

// Blocked adds one mid-flight blockage: no usable preferred neighbor
// remained.
func (t *RouteTally) Blocked() { t.blocked++ }

// Reroute adds one re-admission from the node holding the message;
// failed marks the paper's abort branch.
func (t *RouteTally) Reroute(failed bool) {
	if failed {
		t.aborts++
	} else {
		t.reroutes++
	}
}

// Count adds one unicast: Admit(cond, hamming), Hops(hops, spares) and
// Outcome(out, hops, hamming, errExit). A walk that failed part-way
// counts the hops it made.
func (t *RouteTally) Count(cond CondCode, out OutcomeCode, hamming, hops, spares int, errExit bool) {
	t.Admit(cond, hamming)
	t.Hops(hops, spares)
	t.Outcome(out, hops, hamming, errExit)
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

// Publish adds t's counts to the observer's metrics and empties t. It
// is the only writer of the route_* metrics: they take the whole tally
// in one update per touched counter and histogram bucket.
func (o *RouteObserver) Publish(t *RouteTally) {
	if o != nil {
		o.unicasts.Add(t.cond[0] + t.cond[1] + t.cond[2] + t.cond[3])
		for c, n := range t.cond {
			o.cond[c].Add(n)
		}
		for i, n := range t.outcome {
			o.outcome[i].Add(n)
		}
		o.hops.Add(t.hops)
		o.spares.Add(t.spares)
		o.errors.Add(t.errors)
		o.blocked.Add(t.blocked)
		o.reroutes.Add(t.reroutes)
		o.aborts.Add(t.aborts)
		o.hammingH.addCounts(&t.hamming)
		o.hopsH.addCounts(&t.pathHops)
		o.stretchH.addCounts(&t.stretch)
	}
	*t = RouteTally{}
}

// valueCounts counts one histogram's observations by value: n[v]
// observations of v, with bit v of seen set once n[v] > 0, so a publish
// visits only the values seen. A value of 64 or more goes to long
// instead: no unicast has more than 34 hops (a NavVector has 32 bits),
// but a session that rerouted many times can.
type valueCounts struct {
	seen uint64
	n    [64]uint32
	long []int64
}

// add adds one observation of v >= 0.
func (c *valueCounts) add(v int) {
	if v >= len(c.n) {
		c.long = append(c.long, int64(v))
		return
	}
	c.addN(v, 1)
}

// addN adds n observations of v < 64.
func (c *valueCounts) addN(v int, n uint32) {
	c.n[v] += n
	c.seen |= 1 << uint(v)
}

// addCounts adds the observations c counts: one atomic add per bucket
// they fall in, plus one each for the sum and the count.
func (h *Histogram) addCounts(c *valueCounts) {
	if h == nil {
		return
	}
	for _, v := range c.long {
		h.Observe(v)
	}
	if c.seen == 0 {
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
