package serve

import (
	"context"

	"repro/internal/core"
	"repro/internal/obs"
)

// Batched queries. A batch pins ONE snapshot for all of its requests,
// so the answers are mutually consistent (all computed against the same
// fault generation) no matter how many swaps land while the batch runs.
// A batch runs in request order on the caller's goroutine: the source
// decides each unicast from its own and its neighbors' levels and every
// hop reads the pinned snapshot, so a request needs no coordination
// with any other, and concurrency comes from concurrent callers.

// walkPinned is the sequence BatchUnicastCtx and RouteAllCtx share:
// admission at items tokens, one pinned snapshot, the stale count, one
// walk per slot in slot order on the caller's goroutine, and one flight
// record of kind. What tells the two readers apart comes in as
// arguments: calls and routes count the call and its items, lat takes
// its latency, and pair(i) names slot i's pair, or reports false to
// leave the slot nil. When ctx can be done it is checked between walks,
// so the call returns within one unicast of its context's deadline,
// with ctx's error and no routes. Every route's Gen is the pinned
// snapshot's generation.
func (s *Service) walkPinned(ctx context.Context, kind obs.ReqKind, calls, routes *obs.Counter, lat *obs.Histogram, slots, items int, pair func(int) (Request, bool)) ([]*core.Route, error) {
	start, err := s.admit(ctx, kind, items)
	if err != nil {
		return nil, err
	}
	defer s.release()
	sn := s.cur.Load()
	calls.Inc()
	routes.Add(int64(items))
	stale := len(s.queue) > 0
	if stale {
		s.mStale.Inc()
	}
	out := make([]*core.Route, slots)
	done := ctx.Done()
	for i := range out {
		q, ok := pair(i)
		if !ok {
			continue
		}
		if done != nil && ctx.Err() != nil {
			err = s.ctxErr(ctx)
			s.flightRefuse(kind, start, ctx, items, err)
			return nil, err
		}
		r := sn.rt.Unicast(q.Src, q.Dst)
		r.Gen = sn.gen
		out[i] = r
	}
	s.flightServed(kind, start, ctx, items, sn, stale, lat)
	return out, nil
}
