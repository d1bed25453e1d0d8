package safecube

import (
	"repro/internal/core"
	"repro/internal/obs"
)

// Observability surface of the public API. A Registry collects
// lock-cheap counters, gauges and histograms plus structured traces of
// the two protocols the paper costs out: unicast routing (admission
// condition, per-hop decisions, reroutes, path length vs Hamming
// distance) and GS/EGS level computation (rounds to stabilize, per-round
// level deltas, per-link message counts). Instrumentation is strictly
// opt-in: an uninstrumented Cube pays one nil-check per decision point.
//
// Export the registry with WriteJSON (expvar-style) or WritePrometheus
// (text exposition format), or serve both over HTTP with Mux(). The
// cmd/slmetrics tool dumps a sweep's registry in either format; a
// running slserve serves its registry on /metrics and /vars.

// Registry is the metric and trace collector (see internal/obs).
type Registry = obs.Registry

// RouteTrace is the structured event sequence of one traced unicast.
type RouteTrace = obs.RouteTrace

// RouteEvent is one entry of a RouteTrace.
type RouteEvent = obs.RouteEvent

// GSTrace records one run of the safety-level computation.
type GSTrace = obs.GSTrace

// EventKind discriminates RouteEvent entries.
type EventKind = obs.EventKind

// Trace event kinds (re-exported from the instrumentation core).
const (
	EvAdmit   = obs.EvAdmit
	EvHop     = obs.EvHop
	EvBlocked = obs.EvBlocked
	EvReroute = obs.EvReroute
	EvAbort   = obs.EvAbort
	EvDone    = obs.EvDone
)

// Metric names (see the README metric reference table) — the keys under
// which an instrumented Cube's counters appear in Registry snapshots and
// exports.
const (
	MetricUnicastsTotal      = obs.MetricUnicastsTotal
	MetricOutcomeOptimal     = obs.MetricOutcomeOptimal
	MetricOutcomeSuboptimal  = obs.MetricOutcomeSuboptimal
	MetricOutcomeFailure     = obs.MetricOutcomeFailure
	MetricHopsTotal          = obs.MetricHopsTotal
	MetricSpareHopsTotal     = obs.MetricSpareHopsTotal
	MetricBlockedTotal       = obs.MetricBlockedTotal
	MetricReroutesTotal      = obs.MetricReroutesTotal
	MetricRerouteAbortsTotal = obs.MetricRerouteAbortsTotal
	MetricLevelsCacheHits    = obs.MetricLevelsCacheHits
	MetricLevelsCacheMisses  = obs.MetricLevelsCacheMisses
	MetricLevelsCacheRepairs = obs.MetricLevelsCacheRepairs
	MetricGSRunsTotal        = obs.MetricGSRunsTotal
	MetricGSLastRounds       = obs.MetricGSLastRounds
	MetricGSRepairRounds     = obs.MetricGSRepairRounds
	MetricGSRepairDirtyNodes = obs.MetricGSRepairDirtyNodes
	MetricGSRepairEvals      = obs.MetricGSRepairEvals
)

// Serving metric names — the keys under which a Server started with a
// Registry reports its snapshot, apply-queue, and query counters.
const (
	MetricServeSnapshotGen    = obs.MetricServeSnapshotGen
	MetricServeSwapsTotal     = obs.MetricServeSwapsTotal
	MetricServeSwapMicros     = obs.MetricServeSwapMicros
	MetricServeRepairsTotal   = obs.MetricServeRepairsTotal
	MetricServeColdTotal      = obs.MetricServeColdTotal
	MetricServeQueueDepth     = obs.MetricServeQueueDepth
	MetricServeApplyTotal     = obs.MetricServeApplyTotal
	MetricServeApplyErrors    = obs.MetricServeApplyErrors
	MetricServeApplyRejected  = obs.MetricServeApplyRejected
	MetricServeApplyCoalesced = obs.MetricServeApplyCoalesced
	MetricServeRoutesTotal    = obs.MetricServeRoutesTotal
	MetricServeStaleReads     = obs.MetricServeStaleReads
	MetricServeBatchesTotal   = obs.MetricServeBatchesTotal
	MetricServeBatchItems     = obs.MetricServeBatchItems
	MetricServeFanoutsTotal   = obs.MetricServeFanoutsTotal
	MetricServeFanoutItems    = obs.MetricServeFanoutItems
	MetricServeSnapshotAgeUs  = obs.MetricServeSnapshotAgeUs
	MetricServeRepairLag      = obs.MetricServeRepairLag
	MetricServeQueueHWM       = obs.MetricServeQueueHWM
	MetricFlightRecords       = obs.MetricFlightRecords
	MetricFlightIncidents     = obs.MetricFlightIncidents
)

// Flight recorder surface (see internal/obs/flight.go): the always-on
// low-overhead ring of per-request records a Server feeds, plus the
// bounded incident buffer anomalous requests are promoted to with
// their full per-hop trace.
type (
	// FlightRecorder is the lock-free request recorder.
	FlightRecorder = obs.FlightRecorder
	// FlightOptions size a FlightRecorder.
	FlightOptions = obs.FlightOptions
	// FlightRecord is one request's compact flight entry.
	FlightRecord = obs.FlightRecord
	// FlightSnapshot is the exported view of the flight ring.
	FlightSnapshot = obs.FlightSnapshot
	// Incident is one promoted anomaly with its trace.
	Incident = obs.Incident
	// IncidentSnapshot is the exported view of the incident buffer.
	IncidentSnapshot = obs.IncidentSnapshot
	// ReqKind classifies flight-recorded requests.
	ReqKind = obs.ReqKind
	// FlightErrClass buckets the serving-path error of a flight record.
	FlightErrClass = obs.ErrClass
)

// NewFlightRecorder builds a flight recorder sized by opts; pass it to
// ServeOptions.Flight to share one recorder across Servers or override
// the default sizing. A Server started without one builds its own.
func NewFlightRecorder(opts FlightOptions) *FlightRecorder {
	return obs.NewFlightRecorder(opts)
}

// NewRegistry returns an empty metrics registry.
func NewRegistry() *Registry { return obs.NewRegistry() }

// Instrument attaches a registry to the cube: from now on level
// (re)computations, cache hits/misses, unicast admissions, hops,
// reroutes and outcomes are counted, and Distributed engines started
// from this cube inherit the registry for protocol-cost metrics.
// Instrument(nil) detaches. Returns the cube for chaining.
func (c *Cube) Instrument(r *Registry) *Cube {
	c.reg = r
	c.routeObs = r.RouteObserver()
	c.cacheHits = r.Counter(obs.MetricLevelsCacheHits)
	c.cacheMisses = r.Counter(obs.MetricLevelsCacheMisses)
	c.cacheRepairs = r.Counter(obs.MetricLevelsCacheRepairs)
	return c
}

// Registry returns the attached registry (nil when uninstrumented).
func (c *Cube) Registry() *Registry { return c.reg }

// UnicastTraced routes like Unicast and additionally records the full
// decision trace: the admission condition that held, every hop with its
// dimension and preferred-vs-spare role, and the final outcome with path
// length vs distance. The trace is stamped with the fault-set
// generation the unicast routed against, so traces collected under
// churn stay attributable to one level state. Tracing allocates per
// event; use Unicast on hot paths.
func (c *Cube) UnicastTraced(s, d NodeID) (*Route, *RouteTrace) {
	lv := c.ComputeLevels()
	r := core.NewRouter(lv.as, nil).Observe(c.routeObs).Unicast(s, d)
	tr := r.Trace(lv.as, c.set.Generation())
	c.routeObs.Keep(tr)
	return routeOf(r), tr
}

// StartUnicastTraced admits a unicast like StartUnicast and returns the
// live trace alongside the session: events accumulate as the caller
// Steps, injects faults, and Reroutes — the instrument for the paper's
// Section 2.2 demand-driven scenario. The trace is complete once the
// session is Done (or abandoned after a failed Reroute).
func (c *Cube) StartUnicastTraced(s, d NodeID) (*RouteSession, *RouteTrace, Condition, Outcome) {
	lv := c.ComputeLevels()
	sess, tr, cond, out := core.NewRouter(lv.as, nil).Observe(c.routeObs).StartTraced(s, d, c.set.Generation())
	if sess == nil {
		return nil, tr, cond, out
	}
	return &RouteSession{sess: sess, cube: c}, tr, cond, out
}
