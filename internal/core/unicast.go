package core

import (
	"errors"
	"fmt"
	"math/bits"

	"repro/internal/obs"
	"repro/internal/topo"
)

// Outcome classifies a unicast attempt, mirroring the three exits of
// Algorithm UNICASTING_AT_SOURCE_NODE.
type Outcome int

const (
	// Optimal: the source met C1 or C2 and the message traveled a
	// Hamming-distance path.
	Optimal Outcome = iota
	// Suboptimal: only C3 held; the message took a spare first hop and
	// traveled H(s,d)+2 hops.
	Suboptimal
	// Failure: none of C1, C2, C3 held; the unicast was aborted at the
	// source. The paper: "the cause of failure can be either too many
	// faulty nodes in the neighborhood or a network partition."
	Failure
)

// String renders the outcome for tables and traces.
func (o Outcome) String() string {
	switch o {
	case Optimal:
		return "optimal"
	case Suboptimal:
		return "suboptimal"
	case Failure:
		return "failure"
	default:
		return fmt.Sprintf("Outcome(%d)", int(o))
	}
}

// Condition identifies which source-side safety test admitted a unicast.
type Condition int

const (
	// CondNone: no condition held; unicast aborted.
	CondNone Condition = iota
	// CondC1: S(s) >= H(s, d).
	CondC1
	// CondC2: some preferred neighbor has level >= H(s, d) - 1.
	CondC2
	// CondC3: some spare neighbor has level >= H(s, d) + 1.
	CondC3
)

// String renders the condition name used in the paper.
func (c Condition) String() string {
	switch c {
	case CondC1:
		return "C1"
	case CondC2:
		return "C2"
	case CondC3:
		return "C3"
	default:
		return "none"
	}
}

// TieBreak selects among equally-safest candidate neighbors. The paper
// leaves the choice open ("say 1111 along dimension 0"); the ablation
// experiments quantify that freedom with the two policies below. In a
// generalized cube each dimension is represented by its lowest-coordinate
// safest sibling. The zero value (nil) is LowestDim.
type TieBreak interface{ highest() bool }

type tieRule bool

func (r tieRule) highest() bool { return bool(r) }

const (
	// LowestDim picks the smallest candidate dimension. It is the default
	// and makes every route deterministic.
	LowestDim tieRule = false
	// HighestDim picks the largest candidate dimension.
	HighestDim tieRule = true
)

// Hop records one forwarding decision of the unicast algorithm.
type Hop struct {
	From topo.NodeID
	To   topo.NodeID
	// Dim is the dimension crossed.
	Dim int
	// Nav is the navigation vector sent along with the message
	// (already updated for this hop).
	Nav topo.NavVector
	// Spare marks the single detour hop of a suboptimal unicast.
	Spare bool
}

// Route is the result of one unicast attempt.
type Route struct {
	Source    topo.NodeID
	Dest      topo.NodeID
	Hamming   int
	Outcome   Outcome
	Condition Condition
	Path      topo.Path
	Hops      []Hop
	// Err carries a transport-level anomaly: the algorithm was admitted
	// at the source but a forwarding step found no usable preferred
	// neighbor. With a consistent assignment this cannot happen when a
	// condition held (Theorem 3); it is surfaced rather than panicking
	// so that deliberately inconsistent ablations (truncated GS rounds)
	// can observe the consequence.
	Err error
	// FlightID is the flight-recorder request ID the route was served
	// under (0 when the route was not issued through a serving engine).
	// It causally links the route to its flight record, histogram
	// exemplars, and any promoted incident.
	FlightID uint64
	// Gen is the fault-set generation of the snapshot a serving engine's
	// context-aware reader routed on (0 outside one).
	Gen uint64
}

// Len returns the number of hops traveled, or 0 for a failed unicast.
func (r *Route) Len() int { return r.Path.Len() }

// Summary returns what the route's answer carries besides its path:
// the walked counterpart of Router.Summary.
func (r *Route) Summary() Summary {
	return Summary{
		Condition: r.Condition,
		Outcome:   r.Outcome,
		Hamming:   r.Hamming,
		Hops:      r.Len(),
		Err:       r.Err != nil,
	}
}

// Summary is a unicast decided at the source, as the paper decides it:
// C1 or C2 admits a route of length H, C3 one of length H+2 (Theorem
// 2), and otherwise the unicast fails there. By Theorem 3 forwarding
// cannot fail once a condition held on a consistent assignment, so the
// source's decision is the whole answer except the path.
type Summary struct {
	Condition Condition
	Outcome   Outcome
	Hamming   int
	// Hops is the route's length: Hamming when optimal, Hamming+2 when
	// suboptimal, 0 on failure.
	Hops int
	// Err marks an error exit, one where Route.Err is set. The source
	// step has two: an endpoint outside the topology and a faulty
	// source.
	Err bool
}

// Detours returns the route's spare hops: 1 for C3, 0 otherwise.
func (s Summary) Detours() int {
	if s.Condition == CondC3 {
		return 1
	}
	return 0
}

// Router executes safety-level unicasts over one computed assignment.
type Router struct {
	as *Assignment
	// nodes is the topology's node count: an address below it lies
	// inside the topology.
	nodes uint32
	// bin marks a binary cube, where H(s, d) is one population count.
	bin bool
	// high selects HighestDim over LowestDim.
	high bool
	// dims has one bit per dimension; dims &^ N is the spare set.
	dims topo.NavVector
	// maxHops guards against forwarding loops if the caller routes on a
	// deliberately inconsistent assignment.
	maxHops int
	// obs, when non-nil, receives admission/hop/outcome events. The
	// nil case costs one branch per decision point.
	obs *obs.RouteObserver
}

// NewRouter returns a Router over assignment as using tie-break policy
// tie (nil means LowestDim).
func NewRouter(as *Assignment, tie TieBreak) *Router {
	n := as.t.Dim()
	_, bin := as.t.(*topo.Cube)
	return &Router{
		as: as, nodes: uint32(as.t.Nodes()), bin: bin,
		high: tie != nil && tie.highest(), dims: 1<<uint(n) - 1, maxHops: n + 3,
	}
}

// Assignment returns the safety-level assignment the router consults.
func (rt *Router) Assignment() *Assignment { return rt.as }

// Observe attaches a route observer (nil detaches) and returns the
// router for chaining. A traced observer must not be shared between
// concurrent unicasts; counter-only observers may be.
func (rt *Router) Observe(o *obs.RouteObserver) *Router {
	rt.obs = o
	return rt
}

// Feasibility evaluates the source-side admission test for a unicast
// from s to d and returns the first condition that holds, in the
// algorithm's order C1, C2, C3, together with the outcome class it
// implies. It does not move any message. It agrees with Unicast on
// every input: an endpoint outside the topology or a faulty source
// answers (CondNone, Failure).
func (rt *Router) Feasibility(s, d topo.NodeID) (Condition, Outcome) {
	cond, out, _, _ := rt.source(s, d)
	return cond, out
}

// Summary decides the unicast from s to d at the source and returns it
// without walking a hop or allocating. On a consistent assignment it
// equals Unicast(s, d).Summary() (Theorem 3); on a deliberately
// inconsistent one, such as truncated GS rounds, the walk can still
// fail where the summary promised a route. The observer sees what a
// counter-only observer sees of the walk: the admission, the route's
// hops in one update, and the outcome with a note on an error exit. A
// traced observer records no hop events.
func (rt *Router) Summary(s, d topo.NodeID) Summary {
	sum, _ := rt.summary(s, d)
	if o := rt.obs; o != nil {
		rt.observeAdmit(s, sum)
		at, note := s, ""
		if sum.Err {
			note = sourceExitNote
		}
		if sum.Outcome != Failure {
			at = d
			if sum.Hops > 0 {
				o.CountHops(sum.Hops, sum.Detours())
			}
		}
		o.Done(int(at), sum.Condition.String(), sum.Outcome.String(), sum.Hops, sum.Hamming, 0, note)
	}
	return sum
}

// Pair is one unicast for Summaries to decide: from Src to Dst.
type Pair struct {
	Src, Dst topo.NodeID
}

// Summaries decides each pair at the source, in order, as Summary does,
// and appends the answers to out. A pair whose source is safe
// (safeSource) is decided in the loop itself, from the source's safe
// bit, without a call; any other pair takes the full source step. The
// observer sees what Summary's sees of every answer, in one update per
// counter and histogram bucket once the last pair is decided (an
// obs.RouteTally filled by count, and by CountC1 for the safe
// sources' answers); a traced observer records no events. A non-nil stop
// is asked before each pair, and once it reports true Summaries
// returns the answers decided so far, which are counted too.
func (rt *Router) Summaries(pairs []Pair, out []Summary, stop func() bool) []Summary {
	var (
		tally obs.RouteTally
		// c1[h] counts the safe sources' answers of distance h; a
		// NavVector has 32 bits, so h < 64.
		c1 [64]uint32
	)
	for _, p := range pairs {
		if stop != nil && stop() {
			break
		}
		if h := rt.hamming(p.Src, p.Dst); rt.safeSource(p.Src, p.Dst, h) {
			c1[h]++
			// Filled in place: a literal would be staged on the stack
			// and copied out by wide loads that wait on its narrow
			// stores.
			out = append(out, Summary{})
			a := &out[len(out)-1]
			a.Condition, a.Outcome, a.Hamming, a.Hops = CondC1, Optimal, h, h
			continue
		}
		sum, _ := rt.summary(p.Src, p.Dst)
		count(&tally, sum)
		out = append(out, sum)
	}
	for h, k := range c1 {
		if k > 0 {
			tally.CountC1(h, k)
		}
	}
	rt.obs.Publish(&tally)
	return out
}

// count adds an answer's route_* updates to tally: the updates
// Summary's observer makes for it, which
// TestSummariesObserveLikeSummary holds equal.
func count(tally *obs.RouteTally, sum Summary) {
	tally.Count(obs.CondCode(sum.Condition), obs.OutcomeCode(sum.Outcome)+1, sum.Hamming, sum.Hops, sum.Detours(), sum.Err)
}

// source is the algorithm's source step, the one decision Feasibility,
// Summary and Unicast share: a safe source's answer (safeSource), or
// else the endpoint checks and the admission test over the navigation
// vector nav = N(s, d), which it returns for the walk. bad reports an
// error exit of the endpoint checks.
func (rt *Router) source(s, d topo.NodeID) (cond Condition, out Outcome, nav topo.NavVector, bad bool) {
	t := rt.as.t
	nav = topo.NavIn(t, s, d)
	if rt.safeSource(s, d, nav.Count()) {
		return CondC1, Optimal, nav, false
	}
	if !t.Contains(s) || !t.Contains(d) {
		return CondNone, Failure, nav, true
	}
	lv := rt.as.OwnLevel(s)
	if rt.as.faultyAt(s, lv) {
		return CondNone, Failure, nav, true
	}
	cond, out = rt.admit(s, d, nav, lv)
	return cond, out, nav, false
}

// safeSource reports whether the source step decides the unicast from
// s to d, at distance h = H(s, d), from the source's safe bit alone:
// C1, optimal, of h hops. It does when both endpoints lie inside the
// topology and s's bit is set, so s's own level is n and by Theorem 2
// with k = n s has an optimal path to every node. Two cases are left
// to the full step. At distance 1, d may be the far end of one of s's
// faulty links, which that level does not cover (Section 4.1; admit
// excludes it). A live assignment routes on a set that may have failed
// s since the run, so only a detached copy, whose node faults are its
// levels, answers from the bit. The rule inlines, so Summaries decides
// a safe source without a call.
func (rt *Router) safeSource(s, d topo.NodeID, h int) bool {
	return uint32(s) < rt.nodes && uint32(d) < rt.nodes && h != 1 && rt.as.set == nil && rt.as.own.safe(int(s))
}

// hamming returns H(s, d), which on a binary cube is one population
// count.
func (rt *Router) hamming(s, d topo.NodeID) int {
	if rt.bin {
		return bits.OnesCount32(uint32(s ^ d))
	}
	return topo.NavIn(rt.as.t, s, d).Count()
}

// summary is the source step as a Summary, with nav for the walk.
func (rt *Router) summary(s, d topo.NodeID) (Summary, topo.NavVector) {
	cond, out, nav, bad := rt.source(s, d)
	sum := Summary{Condition: cond, Outcome: out, Hamming: nav.Count(), Err: bad}
	switch out {
	case Optimal:
		sum.Hops = sum.Hamming
	case Suboptimal:
		sum.Hops = sum.Hamming + 2
	}
	return sum, nav
}

// errOutside is the error exit of an endpoint outside the topology.
var errOutside = errors.New("core: node outside cube")

// sourceExitNote is the observer's note on a summarized error exit:
// Summary reports the exit without building Unicast's error.
const sourceExitNote = "core: source faulty or outside the topology"

// sourceErr is Route.Err for an error exit of the source step.
func (rt *Router) sourceErr(s, d topo.NodeID) error {
	t := rt.as.t
	if !t.Contains(s) || !t.Contains(d) {
		return errOutside
	}
	return fmt.Errorf("core: source %s is faulty", t.Format(s))
}

// observeAdmit reports the source step to the observer; the source's
// own level is 0 on an error exit.
func (rt *Router) observeAdmit(s topo.NodeID, sum Summary) {
	level := 0
	if !sum.Err {
		level = rt.as.OwnLevel(s)
	}
	rt.obs.Admit(int(s), sum.Hamming, level, sum.Condition.String(), sum.Outcome.String())
}

// admit is Feasibility over the navigation vector nav = N(s, d) for a
// nonfaulty source of own level own: the preferred dimensions are its
// set bits, the spare ones the rest.
func (rt *Router) admit(s, d topo.NodeID, nav topo.NavVector, own int) (Condition, Outcome) {
	as, t := rt.as, rt.as.t
	h := nav.Count()
	if h == 0 {
		return CondC1, Optimal
	}
	// Section 4.1 exclusion: the far end of an adjacent faulty link is
	// not covered by the source's own level (every length-1 "optimal
	// path" to it is the dead link itself), so a distance-1 unicast to
	// it can only be admitted suboptimally via C3.
	deadLinkDest := h == 1 && as.linkFaulty(s, d)
	if !deadLinkDest {
		if own >= h {
			return CondC1, Optimal
		}
		for v := nav; v != 0; v &= v - 1 {
			if rt.observed(s, t.Toward(s, d, lowDim(v))) >= h-1 {
				return CondC2, Optimal
			}
		}
	}
	// Any sibling along a spare dimension qualifies as the detour.
	for v := rt.dims &^ nav; v != 0; v &= v - 1 {
		i := lowDim(v)
		for k, m := 0, t.Radix(i)-1; k < m; k++ {
			if rt.observed(s, t.Sibling(s, i, k)) > h {
				return CondC3, Suboptimal
			}
		}
	}
	return CondNone, Failure
}

// lowDim returns the lowest dimension set in a nonzero vector.
func lowDim(v topo.NavVector) int { return bits.TrailingZeros32(uint32(v)) }

// observed is the safety level of s's neighbor b as s observes it: the
// public level, with one addition from Section 4.1 — a node never
// forwards across one of its own faulty links, so the far end of a
// faulty link is observed as level 0 regardless of its public value.
func (rt *Router) observed(s, b topo.NodeID) int {
	if rt.as.linkFaulty(s, b) {
		return 0
	}
	return rt.as.Level(b)
}

// UnicastID is Unicast stamped with a flight-recorder request ID, so
// every hop decision of the route is causally attributable to one
// serving-path request.
func (rt *Router) UnicastID(s, d topo.NodeID, id uint64) *Route {
	r := rt.Unicast(s, d)
	r.FlightID = id
	return r
}

// Unicast routes a message from s to d and returns the full trace.
// s must be nonfaulty. d may be any node: the paper delivers the final
// hop even to a faulty or N2 destination (Theorem 2 proof, j = 1 case,
// and footnote to Section 4.1).
//
// The navigation vector N is computed once and carried along the route
// (Section 3.1): a preferred hop clears its dimension's bit, the C3
// spare hop sets one. Theorem 2 fixes the route's length at admission,
// so Path and Hops are each allocated once.
func (rt *Router) Unicast(s, d topo.NodeID) *Route {
	sum, nav := rt.summary(s, d)
	r := &Route{Source: s, Dest: d, Hamming: sum.Hamming, Outcome: sum.Outcome, Condition: sum.Condition}
	if sum.Err {
		r.Err = rt.sourceErr(s, d)
	}
	if rt.obs != nil {
		rt.observeAdmit(s, sum)
	}
	if r.Outcome == Failure {
		return rt.finishObs(r, s)
	}
	r.Path = append(make(topo.Path, 0, sum.Hops+1), s)
	if s == d {
		return rt.finishObs(r, s)
	}
	r.Hops = make([]Hop, 0, sum.Hops)
	at, _, err := rt.walk(s, d, nav, sum, r)
	if err != nil {
		r.Err, r.Outcome = err, Failure
	}
	return rt.finishObs(r, at)
}

// WalkSummary routes from s to d hop by hop as Unicast does and returns
// Unicast(s, d).Summary() without building the route's Path and Hops:
// it allocates only when the walk fails, and tells the observer
// nothing. It checks an answer Summary decided at the source against
// the walk that answer stands for (Theorem 3).
func (rt *Router) WalkSummary(s, d topo.NodeID) Summary {
	sum, nav := rt.summary(s, d)
	if sum.Outcome == Failure || s == d {
		return sum
	}
	_, hops, err := rt.walk(s, d, nav, sum, nil)
	if err != nil {
		sum.Outcome, sum.Err = Failure, true
	}
	sum.Hops = hops
	return sum
}

// walk forwards a message that the source step admitted as sum, from s
// toward d along the navigation vector nav, and appends each hop to r's
// Hops and Path when r is non-nil. It returns the node the message
// reached, the hops it made and, when a step found no usable neighbor
// or the hops ran past maxHops, the error that ended it.
func (rt *Router) walk(s, d topo.NodeID, nav topo.NavVector, sum Summary, r *Route) (cur topo.NodeID, hops int, err error) {
	t, cur := rt.as.t, s
	if sum.Condition == CondC3 {
		// Suboptimal first hop: the spare neighbor with the highest
		// safety level among those meeting the C3 threshold.
		dim, next, ok := rt.pickSpare(cur, nav, sum.Hamming)
		if !ok {
			// Unreachable when admit just admitted C3 on the same oracle;
			// kept as a guard for inconsistent ablations.
			return cur, hops, fmt.Errorf("core: node %s has no usable spare neighbor", t.Format(cur))
		}
		nav = nav.Flip(dim)
		if r != nil {
			r.Hops = append(r.Hops, Hop{From: cur, To: next, Dim: dim, Nav: nav, Spare: true})
			r.Path = append(r.Path, next)
		}
		cur, hops = next, 1
	}
	for k := 0; nav != 0; k++ {
		if k > rt.maxHops {
			return cur, hops, fmt.Errorf("core: forwarding exceeded %d hops (inconsistent levels?)", rt.maxHops)
		}
		dim, next, ok := rt.pickPreferred(cur, d, nav)
		if !ok {
			return cur, hops, fmt.Errorf("core: node %s has no usable preferred neighbor (nav %0*b)",
				t.Format(cur), t.Dim(), nav)
		}
		nav = nav.Flip(dim)
		if r != nil {
			r.Hops = append(r.Hops, Hop{From: cur, To: next, Dim: dim, Nav: nav})
			r.Path = append(r.Path, next)
		}
		cur = next
		hops++
	}
	return cur, hops, nil
}

// finishObs emits the route's hop and terminal observations and returns
// the route unchanged. It is a no-op without an observer. A traced
// observer gets one event per hop; a counter-only one, shared by every
// concurrent unicast, gets the route's hops in a single update.
func (rt *Router) finishObs(r *Route, at topo.NodeID) *Route {
	o := rt.obs
	if o == nil {
		return r
	}
	if o.Trace() != nil {
		for _, h := range r.Hops {
			o.Hop(int(h.From), int(h.To), h.Dim, rt.as.Level(h.To), h.Spare)
		}
	} else if len(r.Hops) > 0 {
		spares := 0
		if r.Hops[0].Spare {
			spares = 1
		}
		o.CountHops(len(r.Hops), spares)
	}
	note := ""
	if r.Err != nil {
		note = r.Err.Error()
	}
	o.Done(int(at), r.Condition.String(), r.Outcome.String(), r.Path.Len(), r.Hamming, 0, note)
	return r
}

// pickPreferred chooses, in one pass over the set bits of nav = N(cur, d),
// the preferred dimension whose candidate neighbor (the sibling matching
// the destination's coordinate) has the highest safety level, breaking
// ties with the router policy. At distance 1 the candidate is the
// destination itself and is chosen unconditionally (final delivery);
// otherwise intermediate candidates must be traversable: nonfaulty and
// not across a faulty link. A candidate's level is read first and only
// a candidate that would win pays the traversability test; a skipped
// candidate never moves best, so the choice is the same either way.
func (rt *Router) pickPreferred(cur, d topo.NodeID, nav topo.NavVector) (int, topo.NodeID, bool) {
	as, t := rt.as, rt.as.t
	if nav&(nav-1) == 0 {
		// Final hop: delivered even to a faulty destination, but not
		// across a faulty link.
		return lowDim(nav), d, !as.linkFaulty(cur, d)
	}
	dim, next, best := 0, topo.NodeID(0), -1
	for v := nav; v != 0; v &= v - 1 {
		i := lowDim(v)
		b := t.Toward(cur, d, i)
		if lv := as.Level(b); (lv > best || rt.high && lv == best) &&
			!as.NodeFaulty(b) && !as.linkFaulty(cur, b) {
			dim, next, best = i, b, lv
		}
	}
	return dim, next, best >= 0
}

// pickSpare chooses, in one pass over the spare dimensions (the clear
// bits of nav), the neighbor with the highest safety level among those
// satisfying C3 (observed level >= h+1). In a generalized cube each
// spare dimension is represented by its lowest-coordinate safest
// sibling; ties across dimensions go to the router policy. ok is false
// when no spare neighbor qualifies (possible in a Session whose oracle
// changed after admission).
func (rt *Router) pickSpare(cur topo.NodeID, nav topo.NavVector, h int) (int, topo.NodeID, bool) {
	t := rt.as.t
	dim, next, best := 0, topo.NodeID(0), -1
	for v := rt.dims &^ nav; v != 0; v &= v - 1 {
		i := lowDim(v)
		for k, m := 0, t.Radix(i)-1; k < m; k++ {
			b := t.Sibling(cur, i, k)
			if lv := rt.observed(cur, b); lv > h && (lv > best || rt.high && lv == best && i != dim) {
				dim, next, best = i, b, lv
			}
		}
	}
	return dim, next, best >= 0
}
