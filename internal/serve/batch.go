package serve

import (
	"context"

	"repro/internal/core"
	"repro/internal/topo"
)

// Batched queries. A batch pins ONE snapshot for all of its requests,
// so the answers are mutually consistent (all computed against the same
// fault generation) no matter how many swaps land while the batch runs.
// A batch runs in request order on the caller's goroutine: the source
// decides each unicast from its own and its neighbors' levels and every
// hop reads the pinned snapshot, so a request needs no coordination
// with any other, and concurrency comes from concurrent callers.

// BatchUnicast answers every request against one snapshot and returns
// the routes in request order. It never blocks on churn.
func (s *Service) BatchUnicast(reqs []Request) []*core.Route {
	sn := s.cur.Load()
	s.mBatches.Inc()
	s.mBatchN.Add(int64(len(reqs)))
	if len(s.queue) > 0 {
		s.mStale.Inc()
	}
	return sn.BatchUnicast(reqs)
}

// BatchUnicast answers every request pinned to this snapshot, in
// order, on the caller's goroutine.
func (sn *Snapshot) BatchUnicast(reqs []Request) []*core.Route {
	out, _ := sn.batchUnicastCtx(context.Background(), reqs)
	return out
}

// batchUnicastCtx is the loop every walking batch reader runs: it
// routes each request in order on the caller's goroutine, pinned to
// sn. When ctx can be done it is checked between requests, so a batch
// returns within one unicast of its context's deadline, with ctx's
// error and no routes.
func (sn *Snapshot) batchUnicastCtx(ctx context.Context, reqs []Request) ([]*core.Route, error) {
	out := make([]*core.Route, len(reqs))
	done := ctx.Done()
	for i, q := range reqs {
		if done != nil && ctx.Err() != nil {
			return nil, ctx.Err()
		}
		out[i] = sn.rt.Unicast(q.Src, q.Dst)
	}
	return out, nil
}

// RouteAll fans one source out to every other node of the topology
// against one snapshot: the serving-layer analogue of a broadcast
// reachability sweep. The result is indexed by destination node ID;
// the source's own slot is nil.
func (s *Service) RouteAll(src topo.NodeID) []*core.Route {
	sn := s.cur.Load()
	reqs := s.fanout(src)
	s.mFanouts.Inc()
	s.mFanoutN.Add(int64(len(reqs)))
	return s.byDest(reqs, sn.BatchUnicast(reqs))
}

// fanout lists the requests of a fan-out from src: one to every other
// node, in node order.
func (s *Service) fanout(src topo.NodeID) []Request {
	nodes := s.t.Nodes()
	reqs := make([]Request, 0, nodes-1)
	for a := 0; a < nodes; a++ {
		if topo.NodeID(a) != src {
			reqs = append(reqs, Request{Src: src, Dst: topo.NodeID(a)})
		}
	}
	return reqs
}

// byDest indexes a fan-out's routes, which are in request order, by
// destination; the source's own slot stays nil.
func (s *Service) byDest(reqs []Request, routes []*core.Route) []*core.Route {
	out := make([]*core.Route, s.t.Nodes())
	for i, q := range reqs {
		out[q.Dst] = routes[i]
	}
	return out
}
