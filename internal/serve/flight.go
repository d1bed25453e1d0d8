package serve

import (
	"context"
	"errors"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/topo"
)

// Flight-recorder glue for the serving path: classify serving errors
// into compact obs.ErrClass codes, and pack a unicast's core.Summary
// into the record fields. Only a record promoted to an incident gets
// the full per-hop trace (core.Route.Trace). Nothing here allocates on
// the healthy hot path; see obs/flight.go for the cost model.

// errClass maps a serving-path error to its flight-record class. It is
// the one place a refusal is classified: the wire code is looked up
// from the class (wireErrCode).
func errClass(err error) obs.ErrClass {
	switch {
	case err == nil:
		return obs.ErrClassNone
	case errors.Is(err, ErrOverload):
		return obs.ErrClassOverload
	case errors.Is(err, ErrBacklog):
		return obs.ErrClassBacklog
	case errors.Is(err, ErrDraining), errors.Is(err, ErrClosed):
		return obs.ErrClassDraining
	case errors.Is(err, context.DeadlineExceeded):
		return obs.ErrClassDeadline
	case errors.Is(err, context.Canceled):
		return obs.ErrClassCanceled
	default:
		return obs.ErrClassOther
	}
}

// routeRecord is the flight record of one unicast answer, built from
// its summary whether the answer was walked or decided at the source.
// The caller fills in the timing fields.
func routeRecord(kind obs.ReqKind, id uint64, sn *Snapshot, sum core.Summary, stale bool) obs.FlightRecord {
	rec := obs.FlightRecord{
		ID:      id,
		Kind:    kind,
		Gen:     sn.gen,
		Hamming: sum.Hamming,
		Hops:    sum.Hops,
		Detours: sum.Detours(),
		Items:   1,
		Cond:    obs.CondCode(sum.Condition),
		// The flight encoding reserves 0 for "never routed".
		Outcome: obs.OutcomeCode(sum.Outcome) + 1,
		Stale:   stale,
	}
	switch {
	case !sn.Consistent():
		rec.Err = obs.ErrClassTorn
	case sum.Err:
		rec.Err = obs.ErrClassOther
	case sum.Outcome == core.Failure:
		// Admission refused the pair outright: no safe route exists
		// under the current faults. A partition or dimension cut
		// surfaces here as "unreachable" (Theorem 4), not as a
		// transport anomaly.
		rec.Err = obs.ErrClassUnreachable
	}
	return rec
}

// summaryCheckEvery is how often a wire answer decided at the source is
// also walked: one answer in this many.
const summaryCheckEvery = 1024

// sampler picks the answers decided at the source that are also walked.
// Each wire connection owns one, so picking costs no shared atomic.
type sampler uint32

// next counts one answer and reports whether it is to be checked.
func (c *sampler) next() bool {
	*c++
	return *c%summaryCheckEvery == 0
}

// checkSummary walks a pair already answered at the source, on the same
// snapshot, and compares the walk's summary with the answer. The walk
// builds no route, so a check allocates nothing. Theorem 3 says they
// agree on every consistent snapshot, so a mismatch means a broken
// level invariant: it counts in serve_summary_mismatch_total and is
// promoted as an incident carrying the trace of a second walk that
// builds the route.
func (s *Service) checkSummary(kind obs.ReqKind, sn *Snapshot, src, dst topo.NodeID, sum core.Summary, stale bool) {
	if sn.ref.WalkSummary(src, dst) == sum {
		return
	}
	s.mMismatch.Inc()
	if fl := s.flight; fl != nil {
		r := sn.ref.Unicast(src, dst)
		r.FlightID = fl.NextID()
		rec := routeRecord(kind, r.FlightID, sn, sum, stale)
		fl.Promote(&rec, "summary-mismatch", r.Trace(sn.as, sn.gen))
	}
}

// deadlineUS returns the remaining deadline budget at start, in
// microseconds (0 when ctx carries no deadline, 1 minimum once one
// exists so "had a deadline" is never confused with "had none").
func deadlineUS(ctx context.Context, start time.Time) int64 {
	if ctx == nil {
		return 0
	}
	dl, ok := ctx.Deadline()
	if !ok {
		return 0
	}
	us := dl.Sub(start).Microseconds()
	if us < 1 {
		us = 1
	}
	return us
}

// flightRefuse records a request that never reached a snapshot —
// shed, draining, context-dead, or churn bounced off a full queue —
// and promotes it (refusals are anomalies by definition). start may be
// zero (TryApply has no admission timestamp) and ctx may be nil.
func (s *Service) flightRefuse(kind obs.ReqKind, start time.Time, ctx context.Context, items int, err error) {
	fl := s.flight
	if fl == nil {
		return
	}
	rec := obs.FlightRecord{
		ID:    fl.NextID(),
		Kind:  kind,
		Items: items,
		Err:   errClass(err),
	}
	if !start.IsZero() {
		rec.Start = start.Unix()
		rec.LatencyUS = time.Since(start).Microseconds()
		rec.DeadlineUS = deadlineUS(ctx, start)
	}
	if reason := fl.Record(&rec); reason != "" {
		fl.Promote(&rec, reason, nil)
	}
}

// flightServed records a successfully served batch/fan-out request
// (no per-route triple; the per-unicast evidence for those lives in
// the aggregate histograms) and feeds the latency histogram with the
// request ID as exemplar. Without a recorder it only feeds the
// histogram.
func (s *Service) flightServed(kind obs.ReqKind, start time.Time, ctx context.Context, items int, sn *Snapshot, stale bool, lat *obs.Histogram) {
	fl := s.flight
	us := time.Since(start).Microseconds()
	if fl == nil {
		lat.Observe(us)
		return
	}
	id := fl.NextID()
	lat.ObserveEx(us, id)
	rec := obs.FlightRecord{
		ID:         id,
		Kind:       kind,
		Gen:        sn.gen,
		Start:      start.Unix(),
		LatencyUS:  us,
		DeadlineUS: deadlineUS(ctx, start),
		Items:      items,
		Stale:      stale,
	}
	if !sn.Consistent() {
		rec.Err = obs.ErrClassTorn
	}
	if reason := fl.Record(&rec); reason != "" {
		fl.Promote(&rec, reason, nil)
	}
}
