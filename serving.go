package safecube

import (
	"context"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/serve"
	"repro/internal/topo"
)

// Serving facade: a Server wraps the concurrent route-serving engine
// (internal/serve) behind the package's public types. Readers —
// Unicast, BatchUnicast, RouteAll, Feasibility — are lock-free; fault
// churn is applied through a bounded queue by a single background
// applier that repairs the levels incrementally and publishes each new
// assignment as an immutable snapshot with one atomic pointer swap.
// See DESIGN.md §9 for why routing against a momentarily stale
// snapshot is still exactly the paper's algorithm for that snapshot's
// fault set.

// ServeOptions configures a Server. The zero value is ready to use.
type ServeOptions struct {
	// QueueDepth bounds the churn apply queue (<= 0 means 64).
	QueueDepth int
	// Rate enables token-bucket admission control on the context-aware
	// readers: at most Rate unicasts per second are admitted
	// (UnicastCtx costs 1, BatchUnicastCtx one per pair, RouteAllCtx
	// one per destination); the excess is shed promptly with
	// ErrServerOverload. <= 0 disables shedding. The context-free
	// readers are never shed.
	Rate float64
	// Burst is the admission bucket depth in unicasts (< 1 means 1).
	Burst int
	// Registry receives the serving metrics (nil disables).
	Registry *Registry
	// Flight supplies a pre-sized flight recorder (see NewFlightRecorder).
	// When nil the Server builds a default one — the recorder is on by
	// default; set NoFlight to opt out.
	Flight *FlightRecorder
	// NoFlight serves without a flight recorder (ignored when Flight is
	// non-nil).
	NoFlight bool
}

// Server is a concurrent route-serving engine over a frozen copy of a
// cube's fault set. All methods are safe for concurrent use; routing
// reads never block, even while churn is being applied. Close it when
// done.
//
// The Server clones the cube's fault state at creation: later
// mutations of the originating Cube do not reach the Server, and
// Server churn does not reach the Cube. Feed churn to the Server
// through its own FailNode/RecoverNode/FailLink/RecoverLink.
type Server struct {
	svc *serve.Service
}

// Serve starts a route-serving engine over a copy of the cube's
// current fault set, binary or generalized.
func (c *Cube) Serve(opts ServeOptions) (*Server, error) {
	svc, err := serve.New(c.set, serve.Options{
		QueueDepth: opts.QueueDepth,
		Rate:       opts.Rate,
		Burst:      opts.Burst,
		Registry:   opts.Registry,
		Flight:     opts.Flight,
		NoFlight:   opts.NoFlight,
	})
	if err != nil {
		return nil, err
	}
	return &Server{svc: svc}, nil
}

// Generation returns the fault-set generation of the currently
// published snapshot. It advances monotonically as churn is applied.
func (s *Server) Generation() uint64 { return s.svc.Generation() }

// Topology returns the lattice the Server routes on.
func (s *Server) Topology() topo.Topology { return s.svc.Topology() }

// QueueDepth returns the number of churn events waiting to be applied.
func (s *Server) QueueDepth() int { return s.svc.QueueDepth() }

// Unicast routes a message from src to dst against the current
// snapshot. It never blocks on churn.
func (s *Server) Unicast(src, dst NodeID) *Route {
	return routeOf(s.svc.Route(src, dst))
}

// UnicastCtx is Unicast with production semantics: it honors ctx
// (returning ctx.Err() promptly once the deadline passes or the caller
// cancels), is subject to admission control (ErrServerOverload beyond
// ServeOptions.Rate), and refuses with ErrServerDraining once Shutdown
// has begun. The route's Generation is that of the snapshot it was
// routed on, which a publish landing mid-request does not change.
func (s *Server) UnicastCtx(ctx context.Context, src, dst NodeID) (*Route, error) {
	r, err := s.svc.RouteCtx(ctx, src, dst)
	if err != nil {
		return nil, err
	}
	return routeOf(r), nil
}

// Feasibility evaluates the source-side admission test against the
// current snapshot without moving a message.
func (s *Server) Feasibility(src, dst NodeID) (Condition, Outcome) {
	return s.svc.Feasibility(src, dst)
}

// Level returns a's safety level in the current snapshot, as observed
// by its neighbors (0 for faulty nodes and for nodes with an adjacent
// faulty link).
func (s *Server) Level(a NodeID) int { return s.svc.Current().Level(a) }

// NodeFaulty reports whether the currently published snapshot marks a
// faulty. This backs the per-node health probe (slserve's /probe): a
// downstream fault monitor polls it to learn this server's view of the
// node, then declares the fault into its own engine. It reads the
// snapshot's own-level table, where exactly the faulty nodes are at
// level 0, so a probe never builds the snapshot's fault set.
func (s *Server) NodeFaulty(a NodeID) bool {
	return s.svc.Current().Assignment().NodeFaulty(a)
}

// CurrentFaults returns the published snapshot's fault view — the same
// consistent state Unicast routes on, built on the snapshot's first
// call and shared by later ones; treat it as read-only. Diagnosis
// front-ends (internal/diagnose) collect a whole PMC syndrome from one
// call so every neighbor test in a sweep observes one generation;
// slserve's /syndrome endpoint is built on it.
func (s *Server) CurrentFaults() *faults.Set { return s.svc.CurrentFaults() }

// BatchUnicast answers every pair against ONE snapshot — the results
// are mutually consistent even while churn lands mid-batch — and
// returns the routes in request order. The pairs are routed one after
// another on the caller's goroutine.
func (s *Server) BatchUnicast(pairs []TrafficPair) []*Route {
	return routesOf(s.svc.BatchUnicast(requestsOf(pairs)))
}

// BatchUnicastCtx is BatchUnicast with deadline, admission and drain
// handling (see UnicastCtx). Admission costs one token per pair; a
// canceled batch returns ctx.Err() rather than a truncated result set.
func (s *Server) BatchUnicastCtx(ctx context.Context, pairs []TrafficPair) ([]*Route, error) {
	rs, err := s.svc.BatchUnicastCtx(ctx, requestsOf(pairs))
	if err != nil {
		return nil, err
	}
	return routesOf(rs), nil
}

// RouteAll routes from src to every other node against one snapshot.
// The result is indexed by destination NodeID; the slot for src is nil.
func (s *Server) RouteAll(src NodeID) []*Route {
	return routesOf(s.svc.RouteAll(src))
}

// RouteAllCtx is RouteAll with deadline, admission and drain handling
// (see UnicastCtx). Admission costs one token per destination.
func (s *Server) RouteAllCtx(ctx context.Context, src NodeID) ([]*Route, error) {
	rs, err := s.svc.RouteAllCtx(ctx, src)
	if err != nil {
		return nil, err
	}
	return routesOf(rs), nil
}

// requestsOf converts facade pairs into engine requests.
func requestsOf(pairs []TrafficPair) []serve.Request {
	reqs := make([]serve.Request, len(pairs))
	for i, p := range pairs {
		reqs[i] = serve.Request(p)
	}
	return reqs
}

// routesOf copies engine routes into the facade's form; a nil route
// (a fan-out's source slot) stays nil.
func routesOf(rs []*core.Route) []*Route {
	out := make([]*Route, len(rs))
	for i, r := range rs {
		out[i] = routeOf(r)
	}
	return out
}

// Inflight returns the number of context-aware requests currently in
// flight (the quantity Shutdown drains to zero).
func (s *Server) Inflight() int64 { return s.svc.Inflight() }

// Flight returns the Server's flight recorder (nil when the Server was
// started with NoFlight). Snapshot it for the recent request records,
// Incidents for the promoted anomalies.
func (s *Server) Flight() *FlightRecorder { return s.svc.Flight() }

// FailNode enqueues a node fault. The snapshot updates asynchronously;
// use Flush to wait for it.
func (s *Server) FailNode(a NodeID) error { return s.svc.FailNode(a) }

// RecoverNode enqueues a node recovery (also dropping the node's
// incident link faults, like the direct facade call does).
func (s *Server) RecoverNode(a NodeID) error { return s.svc.RecoverNode(a) }

// FailLink enqueues a link fault between neighbors a and b.
func (s *Server) FailLink(a, b NodeID) error { return s.svc.FailLink(a, b) }

// RecoverLink enqueues a link recovery.
func (s *Server) RecoverLink(a, b NodeID) error { return s.svc.RecoverLink(a, b) }

// Flush blocks until every churn event enqueued before the call has
// been applied and published.
func (s *Server) Flush() { s.svc.Flush() }

// Close stops the applier and releases the Server. Pending churn is
// drained first. Close is idempotent; methods called after Close see
// ErrServerClosed from mutators and the last published snapshot from
// readers. Close does not wait for in-flight context-aware requests —
// use Shutdown for an ordered drain.
func (s *Server) Close() { s.svc.Close() }

// Shutdown drains the Server gracefully: new context-aware requests
// are refused with ErrServerDraining, every request already admitted
// completes against its pinned snapshot, churn accepted before the
// drain is flushed into a final published snapshot, and only then the
// applier stops. If ctx expires first, the Server hard-closes and
// Shutdown returns ctx.Err(). Context-free readers keep serving the
// final snapshot either way.
func (s *Server) Shutdown(ctx context.Context) error { return s.svc.Shutdown(ctx) }

// Serving errors, re-exported from the engine.
var (
	// ErrServerClosed is returned by mutators after Close.
	ErrServerClosed = serve.ErrClosed
	// ErrServerBacklog is returned when the churn queue is full and the
	// caller asked not to block — writer-side backpressure.
	ErrServerBacklog = serve.ErrBacklog
	// ErrServerOverload is returned by the context-aware readers when
	// admission control sheds the request — reader-side load shedding,
	// deliberately distinct from ErrServerBacklog.
	ErrServerOverload = serve.ErrOverload
	// ErrServerDraining is returned by the context-aware readers once
	// Shutdown (or Close) has begun.
	ErrServerDraining = serve.ErrDraining
)
