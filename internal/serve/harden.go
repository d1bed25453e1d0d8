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

// Production hardening of the read path. The lock-free snapshot
// readers in serve.go can never block each other — but a production
// deployment still needs three guarantees they do not give on their
// own:
//
//   - Deadlines: a caller with a context gets an answer or that
//     context's error, promptly, even mid-batch.
//   - Admission control: an offered load beyond the configured rate is
//     shed at the door with ErrOverload (reader-side shedding), which
//     is deliberately a different signal from ErrBacklog
//     (writer-side churn backpressure): shedding protects the latency
//     of admitted requests, backpressure protects the applier.
//   - Drain ordering: Shutdown refuses new context-carrying requests,
//     waits for every in-flight one to finish against its pinned
//     snapshot, flushes the apply queue (so churn accepted before the
//     drain still reaches a published snapshot), and only then stops
//     the applier. A request admitted before the drain therefore
//     always completes against a consistent, fully published snapshot
//     — the invariant TestServeDrainOrdering pins under -race.
//
// The context-free methods (Route, BatchUnicast, RouteAll) keep their
// PR-4 semantics: never admitted, never shed, never refused — they
// serve the last published snapshot even after Close. The hardened
// surface is the *Ctx family below.

// ErrOverload is returned by the context-aware readers when the
// token-bucket admission controller sheds the request. It maps to HTTP
// 429 in cmd/slserve. Compare ErrBacklog, the writer-side signal.
var ErrOverload = errors.New("serve: overloaded, request shed")

// ErrDraining is returned by the context-aware readers once Shutdown
// (or Close) has begun: the service no longer admits new requests but
// still completes the ones already in flight. Maps to HTTP 503.
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

// Inflight returns the number of context-aware requests currently
// being served (also exported as serve_inflight).
func (s *Service) Inflight() int64 { return s.inflight.Load() }

// ctxErr classifies a context error for metrics and returns it.
func (s *Service) ctxErr(ctx context.Context) error {
	s.mDeadline.Inc()
	return ctx.Err()
}

// admit runs the admission sequence every context-aware reader shares:
// the drain check, the context check and the token bucket, which
// charges items tokens. On refusal it records the flight refusal and
// returns the error. Otherwise the request is in flight until the
// caller's release, and start is the time latency is measured from:
// taken before admission when the flight recorder is on, after it
// otherwise.
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

// RouteCtx is Route with deadlines, admission control and drain
// awareness: it refuses with ErrDraining after Shutdown begins, sheds
// with ErrOverload beyond the configured rate, returns ctx.Err() once
// the context is done, and otherwise routes against the snapshot
// current at admission time, recording the wall latency. The route's
// Gen is that snapshot's generation.
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
			fl.Promote(&rec, reason, traceOfRoute(r, sn.as, a.FlightID, sn.gen))
		}
	}
	if mode == atSourceChecked {
		s.checkSummary(obs.ReqRoute, sn, src, dst, a.Summary, stale)
	}
	return r, a, nil
}

// BatchUnicastCtx is BatchUnicast with the same hardening. Admission
// costs one token per request in the batch; cancellation is observed
// between items, so a batch returns within one unicast of its
// context's deadline (partial results are discarded: the caller asked
// for a mutually consistent answer set, and a truncated one is not).
// Every route's Gen is the generation of the one snapshot the batch
// was routed on.
func (s *Service) BatchUnicastCtx(ctx context.Context, reqs []Request) ([]*core.Route, error) {
	start, err := s.admit(ctx, obs.ReqBatch, len(reqs))
	if err != nil {
		return nil, err
	}
	defer s.release()
	sn := s.cur.Load()
	s.mBatches.Inc()
	s.mBatchN.Add(int64(len(reqs)))
	stale := len(s.queue) > 0
	if stale {
		s.mStale.Inc()
	}
	out, err := sn.batchUnicastCtx(ctx, reqs)
	if err != nil {
		err = s.ctxErr(ctx)
		s.flightRefuse(obs.ReqBatch, start, ctx, len(reqs), err)
		return nil, err
	}
	for _, r := range out {
		r.Gen = sn.gen
	}
	s.flightServed(obs.ReqBatch, start, ctx, len(reqs), sn, stale, s.mLatBatch)
	return out, nil
}

// batchAtSource answers a wire batch at the source on the caller's
// goroutine, appending one summary per request to out, and returns the
// generation of the snapshot every answer was decided on. It runs
// BatchUnicastCtx's sequence: admission at one token per request, one
// pinned snapshot, cancellation checked between items when ctx can be
// done, and one flight record for the batch. Each answer sc picks is
// also walked and compared (checkSummary).
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
	done := ctx.Done()
	for _, q := range reqs {
		if done != nil && ctx.Err() != nil {
			err = s.ctxErr(ctx)
			s.flightRefuse(obs.ReqBatch, start, ctx, len(reqs), err)
			return out, 0, err
		}
		sum := sn.Summary(q.Src, q.Dst)
		if sc.next() {
			s.checkSummary(obs.ReqBatch, sn, q.Src, q.Dst, sum, stale)
		}
		out = append(out, sum)
	}
	s.flightServed(obs.ReqBatch, start, ctx, len(reqs), sn, stale, s.mLatBatch)
	return out, sn.gen, nil
}

// RouteAllCtx is RouteAll with the same hardening; admission costs one
// token per destination, and every route's Gen is the pinned
// snapshot's generation.
func (s *Service) RouteAllCtx(ctx context.Context, src topo.NodeID) ([]*core.Route, error) {
	nodes := s.t.Nodes()
	start, err := s.admit(ctx, obs.ReqRouteAll, nodes-1)
	if err != nil {
		return nil, err
	}
	defer s.release()
	sn := s.cur.Load()
	stale := len(s.queue) > 0
	reqs := s.fanout(src)
	s.mFanouts.Inc()
	s.mFanoutN.Add(int64(len(reqs)))
	routes, err := sn.batchUnicastCtx(ctx, reqs)
	if err != nil {
		err = s.ctxErr(ctx)
		s.flightRefuse(obs.ReqRouteAll, start, ctx, len(reqs), err)
		return nil, err
	}
	for _, r := range routes {
		r.Gen = sn.gen
	}
	out := s.byDest(reqs, routes)
	s.flightServed(obs.ReqRouteAll, start, ctx, len(reqs), sn, stale, s.mLatRouteAll)
	return out, nil
}

// Shutdown drains the service: it stops admitting context-aware
// requests (they get ErrDraining), waits for every in-flight request
// to complete, flushes the apply queue so churn accepted before the
// drain reaches a published snapshot, and then stops the applier.
// The drain order is the guarantee: in-flight requests first, queue
// flush second, final snapshot swap third, applier stop last.
//
// If ctx expires while in-flight requests remain, Shutdown abandons
// the drain, hard-closes the service (exactly Close), and returns
// ctx.Err(). In-flight requests still finish correctly — they hold
// immutable snapshots — but Shutdown no longer vouches for having
// waited for them.
//
// Shutdown is idempotent and safe to race with Close; the context-free
// readers keep serving the final snapshot afterwards.
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
