// Package obs is the instrumentation layer of the safecube system: a
// stdlib-only registry of lock-cheap counters, gauges and histograms,
// plus structured tracers for the two protocols whose cost the paper
// quantifies — the unicasting algorithm (admission condition, per-hop
// decisions, reroutes, path length vs Hamming distance) and the GS/EGS
// safety-level computation (rounds to stabilize, per-round level deltas,
// per-link message counts).
//
// Key invariant: everything is nil-safe. A nil *Registry (and every
// metric handle it returns) is a valid "instrumentation disabled" value
// whose methods are single-branch no-ops, so instrumented hot paths
// cost one pointer test when observability is off. Metric updates are
// atomic and snapshots are consistent enough for monitoring (each value
// is read atomically; cross-metric skew is possible by design), which
// keeps the fast path free of locks and safe under `go test -race`.
//
// Routing reaches the route_* metrics one way: a RouteTally counts the
// answers of one unicast, batch or session call in plain fields, and
// RouteObserver.Publish adds it to the shared metrics, so one observer
// serves any number of concurrent routers. A unicast's decision trace
// (RouteTrace) is built by the router that walked it, outside obs, and
// enters the registry's ring of recent traces through
// RouteObserver.Keep.
//
// Latency measurement lives in latency.go: fixed-boundary log-spaced
// (1-2-5 per decade) microsecond histograms whose tail quantiles
// (p50/p90/p99/p999) are estimated at exposition time and are exact to
// within one bucket boundary. Exposition lives in export.go: an
// expvar-style JSON snapshot, a Prometheus text-format writer, and
// net/http handlers so both CLI tools and long-running servers can
// publish the same registry.
package obs
