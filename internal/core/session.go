package core

import (
	"fmt"

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
	// latest successful Reroute), reported with the terminal event.
	lastCond Condition
}

// ErrBlocked reports that the next hop could not be chosen because
// every usable preferred neighbor is gone — the signal to recompute
// safety levels and Reroute (or abort).
var ErrBlocked = fmt.Errorf("core: route blocked; recompute levels and reroute")

// Start admits a unicast from s to d and returns the in-flight session.
// A Failure admission returns the condition result and a nil session.
func (rt *Router) Start(s, d topo.NodeID) (*Session, Condition, Outcome) {
	h := rt.as.t.Distance(s, d)
	cond, out := rt.Feasibility(s, d)
	if rt.obs != nil {
		// Like Unicast, report level 0 for a source outside the topology.
		srcLevel := 0
		if rt.as.t.Contains(s) {
			srcLevel = rt.as.OwnLevel(s)
		}
		rt.obs.Admit(int(s), h, srcLevel, cond.String(), out.String())
	}
	if out == Failure {
		if rt.obs != nil {
			rt.obs.Done(int(s), cond.String(), out.String(), 0, h, 0, "")
		}
		return nil, cond, out
	}
	sess := &Session{
		rt:           rt,
		dest:         d,
		cur:          s,
		path:         topo.Path{s},
		pendingSpare: cond == CondC3,
		done:         s == d,
		lastCond:     cond,
	}
	if sess.done && rt.obs != nil {
		rt.obs.Done(int(s), cond.String(), out.String(), 0, 0, 0, "")
	}
	return sess, cond, out
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
	nav := topo.NavIn(s.rt.as.t, s.cur, s.dest)
	if s.pendingSpare {
		dim, next, ok := s.rt.pickSpare(s.cur, nav, nav.Count())
		s.pendingSpare = false
		if !ok {
			s.rt.obs.Blocked(int(s.cur))
			return false, ErrBlocked
		}
		return s.move(dim, next, true)
	}
	dim, next, ok := s.rt.pickPreferred(s.cur, s.dest, nav)
	if !ok {
		s.rt.obs.Blocked(int(s.cur))
		return false, ErrBlocked
	}
	return s.move(dim, next, false)
}

// move executes the hop along dim to next.
func (s *Session) move(dim int, next topo.NodeID, spare bool) (bool, error) {
	if s.rt.as.NodeFaulty(next) && s.rt.as.t.Distance(s.cur, s.dest) != 1 {
		// The chosen intermediate died between decision and hop; treat
		// as a blockage rather than walking into a dead node.
		s.rt.obs.Blocked(int(s.cur))
		return false, ErrBlocked
	}
	if s.rt.obs != nil {
		s.rt.obs.Hop(int(s.cur), int(next), dim, s.rt.as.Level(next), spare)
	}
	s.cur = next
	s.path = append(s.path, next)
	if s.cur == s.dest {
		s.done = true
		if s.rt.obs != nil {
			hops := s.path.Len()
			h := s.rt.as.t.Distance(s.path[0], s.dest)
			out := Optimal
			if hops != h {
				out = Suboptimal
			}
			s.rt.obs.Done(int(s.cur), s.lastCond.String(), out.String(), hops, h, s.reroutes, "")
		}
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
	rt := NewRouter(as, tieRule(s.rt.high)).Observe(s.rt.obs)
	cond, out := rt.Feasibility(s.cur, s.dest)
	h := as.t.Distance(s.cur, s.dest)
	if out == Failure {
		// The paper's abort branch: the message is stuck here.
		s.rt.obs.Reroute(int(s.cur), h, cond.String(), out.String(), true)
		return cond, out
	}
	s.rt.obs.Reroute(int(s.cur), h, cond.String(), out.String(), false)
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
