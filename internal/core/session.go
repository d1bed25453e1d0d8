package core

import (
	"fmt"

	"repro/internal/obs"
	"repro/internal/topo"
)

// Session is an in-flight unicast that advances one hop per Step call,
// so a caller can interleave fault events with message progress — the
// demand-driven maintenance scenario of Section 2.2: "in case of
// occurrence of a new faulty node that affects a unicast, this unicast
// might either be aborted or be re-routed from the current node after
// all the safety levels are stabilized."
//
// The session consults the router's fault oracle at every hop, so a
// node that died after admission is seen immediately; the safety levels
// themselves may be stale until the caller recomputes them and calls
// Reroute. A Step that finds every usable preferred neighbor gone
// returns ErrBlocked instead of guessing.
type Session struct {
	rt   *Router
	dest topo.NodeID
	cur  topo.NodeID
	path topo.Path
	// pendingSpare marks that the C3 spare hop is still owed from the
	// most recent admission.
	pendingSpare bool
	done         bool
	// reroutes counts how many times the session was re-admitted.
	reroutes int
	// lastCond is the most recent admission condition (initial Start or
	// latest successful Reroute), reported with the outcome.
	lastCond Condition
	// tally holds the route_* updates of the call in progress; every
	// call publishes it to the router's observer before it returns.
	tally obs.RouteTally
	// trace, when non-nil, records the session's events (StartTraced).
	trace *obs.RouteTrace
}

// ErrBlocked reports that the next hop could not be chosen because
// every usable preferred neighbor is gone — the signal to recompute
// safety levels and Reroute (or abort).
var ErrBlocked = fmt.Errorf("core: route blocked; recompute levels and reroute")

// Start admits a unicast from s to d and returns the in-flight session.
// A Failure admission returns the condition result and a nil session.
func (rt *Router) Start(s, d topo.NodeID) (*Session, Condition, Outcome) {
	return rt.start(s, d, nil)
}

// StartTraced is Start that also records the session's events in a
// trace stamped with fault-set generation gen, returned live: events
// accumulate as the caller Steps and Reroutes. When the session fails
// at admission, starts at its destination or arrives, the trace is
// complete and goes to the observer's ring (RouteObserver.Keep).
func (rt *Router) StartTraced(s, d topo.NodeID, gen uint64) (*Session, *obs.RouteTrace, Condition, Outcome) {
	tr := &obs.RouteTrace{Source: int(s), Dest: int(d), Hamming: rt.as.t.Distance(s, d), Generation: gen}
	sess, cond, out := rt.start(s, d, tr)
	return sess, tr, cond, out
}

// start is Start, recording the session's events in tr when it is
// non-nil.
func (rt *Router) start(s, d topo.NodeID, tr *obs.RouteTrace) (*Session, Condition, Outcome) {
	h := rt.as.t.Distance(s, d)
	cond, out := rt.Feasibility(s, d)
	sess := &Session{
		rt:           rt,
		dest:         d,
		cur:          s,
		pendingSpare: cond == CondC3,
		done:         s == d,
		lastCond:     cond,
		trace:        tr,
	}
	defer sess.publish()
	sess.tally.Admit(obs.CondCode(cond), h)
	// Report level 0 for a source outside the topology.
	level := 0
	if rt.as.t.Contains(s) {
		level = rt.as.OwnLevel(s)
	}
	sess.note(obs.RouteEvent{Kind: obs.EvAdmit, Node: int(s), Hamming: h, Level: level, Cond: cond.String(), Outcome: out.String()})
	if out == Failure {
		sess.finish(out, 0, h)
		return nil, cond, out
	}
	sess.path = topo.Path{s}
	if sess.done {
		sess.finish(out, 0, 0)
	}
	return sess, cond, out
}

// note appends ev to the session's trace, when it records one.
func (s *Session) note(ev obs.RouteEvent) {
	if s.trace != nil {
		s.trace.Events = append(s.trace.Events, ev)
	}
}

// publish adds the call's tally to the router's observer.
func (s *Session) publish() {
	if o := s.rt.obs; o != nil {
		o.Publish(&s.tally)
	}
}

// finish resolves the session at its current node with outcome out
// after pathLen hops, admitted at distance h: it tallies the outcome
// and completes the trace, if any, for the observer's ring.
func (s *Session) finish(out Outcome, pathLen, h int) {
	s.tally.Outcome(obs.OutcomeCode(out)+1, pathLen, h, false)
	tr := s.trace
	if tr == nil {
		return
	}
	tr.Cond, tr.Outcome = s.lastCond.String(), out.String()
	s.note(obs.RouteEvent{Kind: obs.EvDone, Node: int(s.cur), Cond: tr.Cond, Outcome: tr.Outcome})
	tr.PathLen, tr.Reroutes = pathLen, s.reroutes
	if out != Failure {
		tr.Stretch = pathLen - h
	}
	s.rt.obs.Keep(tr)
}

// Done reports whether the message has arrived.
func (s *Session) Done() bool { return s.done }

// At returns the node currently holding the message.
func (s *Session) At() topo.NodeID { return s.cur }

// Path returns the walk traveled so far (including reroute segments).
func (s *Session) Path() topo.Path { return append(topo.Path(nil), s.path...) }

// Hops returns the hops traveled so far.
func (s *Session) Hops() int { return s.path.Len() }

// Reroutes returns how many times the session was re-admitted after a
// blockage.
func (s *Session) Reroutes() int { return s.reroutes }

// Step advances the message one hop. It returns true when the message
// has arrived. ErrBlocked means no usable preferred neighbor remains
// under the current fault oracle — recompute levels and call Reroute.
func (s *Session) Step() (bool, error) {
	if s.done {
		return true, nil
	}
	defer s.publish()
	nav := topo.NavIn(s.rt.as.t, s.cur, s.dest)
	if s.pendingSpare {
		dim, next, ok := s.rt.pickSpare(s.cur, nav, nav.Count())
		s.pendingSpare = false
		if !ok {
			return false, s.blocked()
		}
		return s.move(dim, next, true)
	}
	dim, next, ok := s.rt.pickPreferred(s.cur, s.dest, nav)
	if !ok {
		return false, s.blocked()
	}
	return s.move(dim, next, false)
}

// blocked records a blockage at the current node and returns
// ErrBlocked.
func (s *Session) blocked() error {
	s.tally.Blocked()
	s.note(obs.RouteEvent{Kind: obs.EvBlocked, Node: int(s.cur)})
	return ErrBlocked
}

// move executes the hop along dim to next.
func (s *Session) move(dim int, next topo.NodeID, spare bool) (bool, error) {
	if s.rt.as.NodeFaulty(next) && s.rt.as.t.Distance(s.cur, s.dest) != 1 {
		// The chosen intermediate died between decision and hop; treat
		// as a blockage rather than walking into a dead node.
		return false, s.blocked()
	}
	spares := 0
	if spare {
		spares = 1
	}
	s.tally.Hops(1, spares)
	s.note(obs.RouteEvent{Kind: obs.EvHop, Node: int(next), From: int(s.cur), Dim: dim, Level: s.rt.as.Level(next), Spare: spare})
	s.cur = next
	s.path = append(s.path, next)
	if s.cur == s.dest {
		s.done = true
		hops, h := s.path.Len(), s.rt.as.t.Distance(s.path[0], s.dest)
		out := Optimal
		if hops != h {
			out = Suboptimal
		}
		s.finish(out, hops, h)
	}
	return s.done, nil
}

// Reroute re-admits the unicast from the current node against a fresh
// assignment (compute it after the fault oracle changed). On success
// the session continues from here — possibly with a new C3 detour; on
// Failure the message is stuck at the current node (the paper's "might
// be aborted" branch) and the session stays blocked.
func (s *Session) Reroute(as *Assignment) (Condition, Outcome) {
	if s.done {
		return CondC1, Optimal
	}
	defer s.publish()
	rt := NewRouter(as, tieRule(s.rt.high)).Observe(s.rt.obs)
	cond, out := rt.Feasibility(s.cur, s.dest)
	failed := out == Failure
	s.tally.Reroute(failed)
	kind := obs.EvReroute
	if failed {
		kind = obs.EvAbort
	}
	s.note(obs.RouteEvent{Kind: kind, Node: int(s.cur), Hamming: as.t.Distance(s.cur, s.dest), Cond: cond.String(), Outcome: out.String()})
	if failed {
		// The paper's abort branch: the message is stuck here.
		return cond, out
	}
	s.rt = rt
	s.pendingSpare = cond == CondC3
	s.reroutes++
	s.lastCond = cond
	return cond, out
}

// Run drives the session to completion or blockage, returning the
// arrival state (convenience for tests and callers without mid-flight
// events).
func (s *Session) Run() (bool, error) {
	for !s.done {
		if _, err := s.Step(); err != nil {
			return false, err
		}
	}
	return true, nil
}
