// Package serve is the concurrent route-serving engine: the first layer
// of the system that answers unicast queries for many callers at once
// instead of computing answers for one.
//
// The paper's routing decision is read-mostly. Safety levels change only
// on fault churn (a FailNode/RecoverNode/FailLink event), while every
// unicast between two churn events routes against the same level
// fixpoint — exactly the shape RCU-style snapshotting exploits. A
// Service therefore keeps one immutable, generation-stamped Snapshot
// behind an atomic pointer:
//
//   - Readers (Route, Feasibility, BatchUnicast, RouteAll) load the
//     pointer, route, and never take a lock. A reader keeps the snapshot
//     it loaded for the whole query, so every answer is internally
//     consistent even while the pointer moves underneath it. A batch or
//     fan-out runs in request order on the caller's goroutine: each
//     unicast is decided at its source from the pinned snapshot alone,
//     so requests need no coordination and concurrency comes from
//     concurrent callers.
//   - Fault churn goes through a bounded apply queue drained by a single
//     applier goroutine, which owns the live fault oracle, reconverges
//     the levels through core.RepairLevels (cold Compute as fallback),
//     and publishes the next snapshot with a single pointer swap.
//
// Stale-snapshot routing is safe, not merely tolerated: by Theorem 1 the
// safety-level fixpoint for a fault set is unique, so a snapshot is the
// exact assignment for the faults it was stamped with, and every route
// it produces is a correct route of that slightly-older cube — the same
// guarantee any distributed execution gives between two GS exchanges
// (see DESIGN.md §9 for the full argument).
//
// Production hardening lives in harden.go: the context-aware readers
// (RouteCtx, BatchUnicastCtx, RouteAllCtx) add per-request deadlines, a
// lock-free GCRA token bucket for admission control, and graceful drain
// via Shutdown. The load taxonomy is deliberately split — ErrBacklog is
// writer-side backpressure (the churn queue is full, so a churn storm
// throttles writers while readers keep serving the last snapshot;
// the applier also coalesces every queued event into one repair + one
// swap, so a storm of k events costs one reconvergence, not k),
// ErrOverload is reader-side shedding (admission refused the query),
// and ErrDraining means Shutdown has begun. See docs/OPERATIONS.md.
//
// Key invariant (drain ordering): a context-aware request admitted
// before Shutdown completes against a consistent snapshot, all churn
// accepted before the drain is flushed into one final published
// snapshot, and only then does the applier stop. The acquire path
// increments the inflight count before re-checking the phase under
// sequentially consistent atomics, so Shutdown either observes the
// request or the request observes the drain — never neither.
package serve
