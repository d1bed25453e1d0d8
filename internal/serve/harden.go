package serve

import (
	"context"
	"errors"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/topo"
)

// Production hardening of the read path. Readers of the lock-free
// snapshots can never block each other — but a production deployment
// still needs three guarantees the snapshots do not give on their own:
//
//   - Deadlines: a caller with a context gets an answer or that
//     context's error, promptly, even mid-batch.
//   - Admission control: an offered load beyond the configured rate is
//     shed at the door with ErrOverload (reader-side shedding), which
//     is deliberately a different signal from ErrBacklog
//     (writer-side churn backpressure): shedding protects the latency
//     of admitted requests, backpressure protects the applier.
//   - Drain ordering: Shutdown refuses new requests, waits for every
//     in-flight one to finish against its pinned snapshot, flushes the
//     apply queue (so churn accepted before the drain still reaches a
//     published snapshot), and only then stops the applier. A request
//     admitted before the drain therefore always completes against a
//     consistent, fully published snapshot — the invariant
//     TestServeDrainOrdering pins under -race.
//
// Every request the Service answers passes admit first: RouteCtx,
// BatchUnicastCtx, RouteAllCtx, and the wire server's unicast,
// feasibility and batch frames. Snapshot.Route and Snapshot.Summary,
// on a snapshot from Current, are the pinned reads that skip all of
// it; the differential tests and the benchmark ladder use them.

// ErrOverload is returned by the readers when the token-bucket
// admission controller sheds the request. It maps to HTTP 429 in
// cmd/slserve. Compare ErrBacklog, the writer-side signal.
var ErrOverload = errors.New("serve: overloaded, request shed")

// ErrDraining is returned by the readers once Shutdown (or Close) has
// begun: the service no longer admits new requests but still completes
// the ones already in flight. Maps to HTTP 503.
var ErrDraining = errors.New("serve: draining, not admitting requests")

// Service lifecycle phases (Service.phase).
const (
	phaseServing int32 = iota
	phaseDraining
	phaseStopped
)

// tokenBucket is a lock-free GCRA-style token bucket: the whole state
// is one atomic "theoretical arrival time" in nanoseconds. take(n)
// costs one CAS on the uncontended path and never blocks — admission
// control must not queue, or shed load would still consume the latency
// budget it exists to protect.
type tokenBucket struct {
	interval int64 // nanoseconds earned back per token
	depth    int64 // burst depth in nanoseconds (burst * interval)
	tat      atomic.Int64
}

// newTokenBucket builds a bucket admitting rate tokens/second with the
// given burst. rate <= 0 disables admission control (nil bucket).
func newTokenBucket(rate float64, burst int) *tokenBucket {
	if rate <= 0 {
		return nil
	}
	if burst < 1 {
		burst = 1
	}
	interval := int64(float64(time.Second) / rate)
	if interval < 1 {
		interval = 1
	}
	b := &tokenBucket{interval: interval, depth: int64(burst) * interval}
	b.tat.Store(time.Now().UnixNano() - b.depth) // start full
	return b
}

// take admits n tokens' worth of work, or reports shedding. A nil
// bucket admits everything.
func (b *tokenBucket) take(n int) bool {
	if b == nil {
		return true
	}
	cost := int64(n) * b.interval
	for {
		now := time.Now().UnixNano()
		tat := b.tat.Load()
		next := tat
		if now > next {
			next = now
		}
		next += cost
		if next-now > b.depth {
			return false
		}
		if b.tat.CompareAndSwap(tat, next) {
			return true
		}
	}
}

// acquire registers one in-flight request. It refuses once draining
// has begun; the seq-cst re-check after the increment closes the race
// with Shutdown flipping the phase between our load and our add.
func (s *Service) acquire() error {
	if s.phase.Load() != phaseServing {
		return ErrDraining
	}
	s.inflight.Add(1)
	s.mInflight.Add(1)
	if s.phase.Load() != phaseServing {
		s.release()
		return ErrDraining
	}
	return nil
}

// release retires one in-flight request and, if a drain is waiting on
// us, signals it when the count hits zero.
func (s *Service) release() {
	s.mInflight.Add(-1)
	if s.inflight.Add(-1) == 0 && s.phase.Load() != phaseServing {
		s.signalDrained()
	}
}

func (s *Service) signalDrained() {
	s.drainOnce.Do(func() { close(s.drained) })
}

// Inflight returns the number of requests currently being served
// (also exported as serve_inflight).
func (s *Service) Inflight() int64 { return s.inflight.Load() }

// ctxErr classifies a context error for metrics and returns it.
func (s *Service) ctxErr(ctx context.Context) error {
	s.mDeadline.Inc()
	return ctx.Err()
}

// admit runs the admission sequence every reader shares: the drain
// check, the context check and the token bucket, which charges items
// tokens. On refusal it records the flight refusal and returns the
// error. Otherwise the request is in flight until the caller's release,
// and start is the time latency is measured from: taken before
// admission when the flight recorder is on, after it otherwise.
func (s *Service) admit(ctx context.Context, kind obs.ReqKind, items int) (start time.Time, err error) {
	if s.flight != nil {
		start = time.Now()
	}
	if err := s.acquire(); err != nil {
		s.flightRefuse(kind, start, ctx, items, err)
		return start, err
	}
	switch {
	case ctx.Err() != nil:
		err = s.ctxErr(ctx)
	case !s.bucket.take(items):
		s.mOverload.Inc()
		err = ErrOverload
	}
	if err != nil {
		s.flightRefuse(kind, start, ctx, items, err)
		s.release()
		return start, err
	}
	if s.flight == nil {
		start = time.Now()
	}
	return start, nil
}

// RouteCtx unicasts from src to dst with deadlines, admission control
// and drain awareness: it refuses with ErrDraining after Shutdown
// begins, sheds with ErrOverload beyond the configured rate, returns
// ctx.Err() once the context is done, and otherwise routes against the
// snapshot current at admission time, recording the wall latency. The
// route's Gen is that snapshot's generation.
func (s *Service) RouteCtx(ctx context.Context, src, dst topo.NodeID) (*core.Route, error) {
	r, _, err := s.routeCtx(ctx, src, dst, walkRoute)
	return r, err
}

// routeMode selects how routeCtx answers a pair.
type routeMode uint8

const (
	// walkRoute walks every hop and returns the route (RouteCtx).
	walkRoute routeMode = iota
	// atSource decides the pair at the source (Snapshot.Summary) and
	// returns no route: the wire path, whose answer carries no path.
	atSource
	// atSourceChecked is atSource that also walks the pair and compares
	// (checkSummary): the wire path's sampled check.
	atSourceChecked
)

// answer is one unicast served by routeCtx: its summary, the
// generation of the snapshot it was decided on, and its flight ID.
type answer struct {
	core.Summary
	Gen, FlightID uint64
}

// routeCtx is the sequence RouteCtx and the wire path share: admission,
// one snapshot load, the route (walked or decided at the source, as
// mode says), the latency histogram and the flight record. The route is
// nil unless mode is walkRoute; an incident promotion re-walks the pair
// on the pinned snapshot for its trace.
func (s *Service) routeCtx(ctx context.Context, src, dst topo.NodeID, mode routeMode) (*core.Route, answer, error) {
	start, err := s.admit(ctx, obs.ReqRoute, 1)
	if err != nil {
		return nil, answer{}, err
	}
	defer s.release()
	sn := s.cur.Load()
	s.mRoutes.Inc()
	stale := len(s.queue) > 0
	if stale {
		s.mStale.Inc()
	}
	fl := s.flight
	a := answer{Gen: sn.gen, FlightID: fl.NextID()}
	var r *core.Route
	if mode == walkRoute {
		r = sn.rt.UnicastID(src, dst, a.FlightID)
		r.Gen = sn.gen
		a.Summary = r.Summary()
	} else {
		a.Summary = sn.Summary(src, dst)
	}
	lat := time.Since(start).Microseconds()
	s.mLatRoute.ObserveEx(lat, a.FlightID)
	if fl != nil {
		rec := routeRecord(obs.ReqRoute, a.FlightID, sn, a.Summary, stale)
		rec.Start, rec.LatencyUS, rec.DeadlineUS = start.Unix(), lat, deadlineUS(ctx, start)
		if reason := fl.Record(&rec); reason != "" {
			if r == nil {
				r = sn.ref.UnicastID(src, dst, a.FlightID)
			}
			fl.Promote(&rec, reason, r.Trace(sn.as, sn.gen))
		}
	}
	if mode == atSourceChecked {
		s.checkSummary(obs.ReqRoute, sn, src, dst, a.Summary, stale)
	}
	return r, a, nil
}

// BatchUnicastCtx answers every request against one snapshot and
// returns the routes in request order, with RouteCtx's hardening.
// Admission costs one token per request in the batch; cancellation is
// observed between items, so a batch returns within one unicast of its
// context's deadline (partial results are discarded: the caller asked
// for a mutually consistent answer set, and a truncated one is not).
// Every route's Gen is the generation of the one snapshot the batch
// was routed on.
func (s *Service) BatchUnicastCtx(ctx context.Context, reqs []Request) ([]*core.Route, error) {
	return s.walkPinned(ctx, obs.ReqBatch, s.mBatches, s.mBatchN, s.mLatBatch,
		len(reqs), len(reqs), func(i int) (Request, bool) { return reqs[i], true })
}

// batchAtSource answers a wire batch at the source on the caller's
// goroutine, appending one summary per request to out, and returns the
// generation of the snapshot every answer was decided on. It runs
// BatchUnicastCtx's sequence: admission at one token per request, one
// pinned snapshot, cancellation checked between items when ctx can be
// done, and one flight record for the batch. The answers come from
// core.Router.Summaries, which decides a safe source from its safe bit
// without a call and counts the batch's route_* updates in one
// publish, including those of a batch cancelled part-way. Each answer
// sc picks is also walked and compared (checkSummary).
func (s *Service) batchAtSource(ctx context.Context, reqs []Request, out []core.Summary, sc *sampler) ([]core.Summary, uint64, error) {
	start, err := s.admit(ctx, obs.ReqBatch, len(reqs))
	if err != nil {
		return out, 0, err
	}
	defer s.release()
	sn := s.cur.Load()
	s.mBatches.Inc()
	s.mBatchN.Add(int64(len(reqs)))
	stale := len(s.queue) > 0
	if stale {
		s.mStale.Inc()
	}
	var stop func() bool
	if ctx.Done() != nil {
		stop = func() bool { return ctx.Err() != nil }
	}
	n := len(out)
	out = sn.rt.Summaries(reqs, out, stop)
	for i, sum := range out[n:] {
		if sc.next() {
			s.checkSummary(obs.ReqBatch, sn, reqs[i].Src, reqs[i].Dst, sum, stale)
		}
	}
	if len(out)-n < len(reqs) {
		err = s.ctxErr(ctx)
		s.flightRefuse(obs.ReqBatch, start, ctx, len(reqs), err)
		return out, 0, err
	}
	s.flightServed(obs.ReqBatch, start, ctx, len(reqs), sn, stale, s.mLatBatch)
	return out, sn.gen, nil
}

// RouteAllCtx fans one source out to every other node of the topology
// against one snapshot, with RouteCtx's hardening: the serving-layer
// analogue of a broadcast reachability sweep. The result is indexed by
// destination node ID, and the source's own slot is nil; a source
// outside the topology gets a route with Err set in every slot.
// Admission costs one token per destination, and every route's Gen is
// the pinned snapshot's generation.
func (s *Service) RouteAllCtx(ctx context.Context, src topo.NodeID) ([]*core.Route, error) {
	nodes := s.t.Nodes()
	return s.walkPinned(ctx, obs.ReqRouteAll, s.mFanouts, s.mFanoutN, s.mLatRouteAll,
		nodes, nodes-1, func(a int) (Request, bool) {
			return Request{Src: src, Dst: topo.NodeID(a)}, topo.NodeID(a) != src
		})
}

// Shutdown drains the service: it stops admitting requests (they get
// ErrDraining), waits for every in-flight request to complete, flushes
// the apply queue so churn accepted before the drain reaches a
// published snapshot, and then stops the applier.
// The drain order is the guarantee: in-flight requests first, queue
// flush second, final snapshot swap third, applier stop last.
//
// If ctx expires while in-flight requests remain, Shutdown abandons
// the drain, hard-closes the service (exactly Close), and returns
// ctx.Err(). In-flight requests still finish correctly — they hold
// immutable snapshots — but Shutdown no longer vouches for having
// waited for them.
//
// Shutdown is idempotent and safe to race with Close; Current keeps
// returning the final snapshot afterwards.
func (s *Service) Shutdown(ctx context.Context) error {
	s.phase.CompareAndSwap(phaseServing, phaseDraining)
	s.mDraining.Set(1)
	if s.inflight.Load() == 0 {
		s.signalDrained()
	}
	select {
	case <-s.drained:
	case <-ctx.Done():
		s.Close()
		return ctx.Err()
	}
	// All in-flight requests have retired. Publish any churn accepted
	// before (or during) the drain, then stop the applier for good.
	s.Flush()
	s.Close()
	return nil
}
