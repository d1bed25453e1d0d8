package obs

import (
	"fmt"
	"strings"
)

// EventKind discriminates route trace events.
type EventKind int

const (
	// EvAdmit: the source-side admission test ran (at the source, or at
	// the current node after a Reroute re-admission).
	EvAdmit EventKind = iota
	// EvHop: the message crossed one link.
	EvHop
	// EvBlocked: no usable preferred neighbor remained mid-flight.
	EvBlocked
	// EvReroute: the session was re-admitted from the current node after
	// fresh levels were computed (Section 2.2 demand-driven scenario).
	EvReroute
	// EvAbort: a re-admission failed; the message is stuck (the paper's
	// "might be aborted" branch).
	EvAbort
	// EvDone: the attempt resolved (delivered or failed at the source).
	EvDone
)

// String names the event kind for transcripts.
func (k EventKind) String() string {
	switch k {
	case EvAdmit:
		return "admit"
	case EvHop:
		return "hop"
	case EvBlocked:
		return "blocked"
	case EvReroute:
		return "reroute"
	case EvAbort:
		return "abort"
	case EvDone:
		return "done"
	default:
		return fmt.Sprintf("event(%d)", int(k))
	}
}

// RouteEvent is one entry of a unicast decision trace. Node identities
// are raw IDs so that obs stays independent of the topology package;
// Format renders them through a caller-supplied address formatter.
type RouteEvent struct {
	Kind EventKind `json:"kind"`
	// Node is where the decision happened (for hops: the receiving node).
	Node int `json:"node"`
	// From is the sending node of a hop.
	From int `json:"from,omitempty"`
	// Dim is the dimension crossed by a hop.
	Dim int `json:"dim,omitempty"`
	// Spare marks the C3 detour hop (preferred-vs-spare choice).
	Spare bool `json:"spare,omitempty"`
	// Level is the decision's safety level: the source's own level for
	// admissions, the chosen neighbor's observed level for hops.
	Level int `json:"level,omitempty"`
	// Hamming is the remaining Hamming distance at admission time.
	Hamming int `json:"hamming,omitempty"`
	// Cond and Outcome carry the admission result (C1/C2/C3/none,
	// optimal/suboptimal/failure) for admit/reroute/done events.
	Cond    string `json:"cond,omitempty"`
	Outcome string `json:"outcome,omitempty"`
	// Note carries a transport anomaly description.
	Note string `json:"note,omitempty"`
}

// RouteTrace is the full event sequence of one unicast attempt.
type RouteTrace struct {
	Source  int `json:"source"`
	Dest    int `json:"dest"`
	Hamming int `json:"hamming"`
	// RequestID links the trace to its flight record and histogram
	// exemplars (0 when the unicast was not served by a Server).
	RequestID uint64 `json:"request_id,omitempty"`
	// Generation is the fault-set generation of the level snapshot the
	// unicast routed against, so traces gathered under concurrent churn
	// stay attributable to one level state (0 when unknown).
	Generation uint64       `json:"generation,omitempty"`
	Events     []RouteEvent `json:"events"`
	// Cond and Outcome mirror the final admission condition and outcome.
	Cond    string `json:"cond,omitempty"`
	Outcome string `json:"outcome,omitempty"`
	// PathLen is the number of hops traveled (0 on failure); Stretch is
	// PathLen - Hamming for delivered messages.
	PathLen  int `json:"path_len"`
	Stretch  int `json:"stretch"`
	Reroutes int `json:"reroutes"`
}

// Format renders the trace as a human-readable transcript, using fmtNode
// to print node addresses (pass nil for raw integers).
func (t *RouteTrace) Format(fmtNode func(int) string) string {
	if t == nil {
		return ""
	}
	if fmtNode == nil {
		fmtNode = func(a int) string { return fmt.Sprintf("%d", a) }
	}
	var b strings.Builder
	fmt.Fprintf(&b, "trace %s -> %s (H = %d)", fmtNode(t.Source), fmtNode(t.Dest), t.Hamming)
	if t.Generation != 0 {
		fmt.Fprintf(&b, " gen %d", t.Generation)
	}
	if t.RequestID != 0 {
		fmt.Fprintf(&b, " req %d", t.RequestID)
	}
	b.WriteByte('\n')
	for _, e := range t.Events {
		switch e.Kind {
		case EvAdmit:
			fmt.Fprintf(&b, "  admit   at %s: H=%d S=%d -> %s (%s)\n",
				fmtNode(e.Node), e.Hamming, e.Level, e.Cond, e.Outcome)
		case EvHop:
			role := "preferred"
			if e.Spare {
				role = "spare"
			}
			fmt.Fprintf(&b, "  hop     %s -> %s dim %d (%s, neighbor level %d)\n",
				fmtNode(e.From), fmtNode(e.Node), e.Dim, role, e.Level)
		case EvBlocked:
			fmt.Fprintf(&b, "  blocked at %s: no usable preferred neighbor\n", fmtNode(e.Node))
		case EvReroute:
			fmt.Fprintf(&b, "  reroute at %s: H=%d -> %s (%s)\n",
				fmtNode(e.Node), e.Hamming, e.Cond, e.Outcome)
		case EvAbort:
			fmt.Fprintf(&b, "  abort   at %s: re-admission failed, message stuck\n", fmtNode(e.Node))
		case EvDone:
			if e.Note != "" {
				fmt.Fprintf(&b, "  done    %s at %s: %s\n", e.Outcome, fmtNode(e.Node), e.Note)
			} else {
				fmt.Fprintf(&b, "  done    %s at %s\n", e.Outcome, fmtNode(e.Node))
			}
		default:
			fmt.Fprintf(&b, "  %s\n", e.Kind)
		}
	}
	fmt.Fprintf(&b, "outcome %s via %s: %d hops vs H = %d (stretch %d, reroutes %d)\n",
		t.Outcome, t.Cond, t.PathLen, t.Hamming, t.Stretch, t.Reroutes)
	return b.String()
}

// RouteObserver holds the route_* metrics of one registry, resolved
// once. Publish, its only writer, adds a RouteTally to them; Keep adds a
// finished trace to the registry's ring. A nil observer is a no-op, and
// one observer is safe for concurrent use by any number of routers and
// sessions.
type RouteObserver struct {
	reg *Registry

	unicasts *Counter
	cond     [4]*Counter // admissions by CondCode
	outcome  [3]*Counter // by OutcomeCode - 1

	hops, spares, blocked, reroutes, aborts, errors *Counter

	hammingH, hopsH, stretchH *Histogram
}

// Route metric names (see the README metric reference table).
const (
	MetricUnicastsTotal       = "route_unicasts_total"
	MetricAdmitC1Total        = "route_admit_c1_total"
	MetricAdmitC2Total        = "route_admit_c2_total"
	MetricAdmitC3Total        = "route_admit_c3_total"
	MetricAdmitNoneTotal      = "route_admit_none_total"
	MetricOutcomeOptimal      = "route_outcome_optimal_total"
	MetricOutcomeSuboptimal   = "route_outcome_suboptimal_total"
	MetricOutcomeFailure      = "route_outcome_failure_total"
	MetricHopsTotal           = "route_hops_total"
	MetricSpareHopsTotal      = "route_spare_hops_total"
	MetricBlockedTotal        = "route_blocked_total"
	MetricReroutesTotal       = "route_reroutes_total"
	MetricRerouteAbortsTotal  = "route_reroute_aborts_total"
	MetricForwardErrorsTotal  = "route_forward_errors_total"
	MetricHammingHist         = "route_hamming"
	MetricHopsHist            = "route_path_hops"
	MetricStretchHist         = "route_stretch"
	MetricLevelsCacheHits     = "levels_cache_hits_total"
	MetricLevelsCacheMisses   = "levels_cache_misses_total"
	MetricGSRunsTotal         = "gs_runs_total"
	MetricGSLastRounds        = "gs_last_rounds"
	MetricGSRoundsHist        = "gs_rounds"
	MetricGSLevelChangesTotal = "gs_level_changes_total"
	// Incremental repair metrics: a repair counts as a cache miss (the
	// assignment was recomputed) plus a repairs counter, so
	// misses - repairs = cold recomputations.
	MetricLevelsCacheRepairs = "levels_cache_repairs_total"
	MetricGSRepairRounds     = "gs_repair_last_rounds"
	MetricGSRepairDirtyNodes = "gs_repair_dirty_nodes_total"
	MetricGSRepairEvals      = "gs_repair_evals_total"
	// Serving-engine metrics (internal/serve): the lock-free snapshot
	// readers, the bounded apply queue, and the swap path.
	MetricServeSnapshotGen    = "serve_snapshot_generation"
	MetricServeSwapsTotal     = "serve_swaps_total"
	MetricServeSwapMicros     = "serve_swap_micros"
	MetricServeRepairsTotal   = "serve_snapshot_repairs_total"
	MetricServeColdTotal      = "serve_snapshot_cold_total"
	MetricServeQueueDepth     = "serve_apply_queue_depth"
	MetricServeApplyTotal     = "serve_apply_events_total"
	MetricServeApplyErrors    = "serve_apply_errors_total"
	MetricServeApplyRejected  = "serve_apply_rejected_total"
	MetricServeApplyCoalesced = "serve_apply_coalesced_total"
	MetricServeRoutesTotal    = "serve_routes_total"
	MetricServeStaleReads     = "serve_stale_reads_total"
	MetricServeBatchesTotal   = "serve_batches_total"
	MetricServeBatchItems     = "serve_batch_items_total"
	MetricServeFanoutsTotal   = "serve_fanouts_total"
	MetricServeFanoutItems    = "serve_fanout_items_total"
	// Wire answers decided at the source whose sampled walk on the same
	// snapshot disagreed: a broken level invariant (Theorem 3).
	MetricServeSummaryMismatch = "serve_summary_mismatch_total"
	// Serving-path hardening metrics: token-bucket load shedding
	// (distinct from serve_apply_rejected_total, which is writer-side
	// churn backpressure), context cancellation, and the drain state.
	MetricServeOverloadTotal = "serve_overload_total"
	MetricServeDeadlineTotal = "serve_deadline_total"
	MetricServeInflight      = "serve_inflight"
	MetricServeDraining      = "serve_draining"
	// Staleness and backlog telemetry: age of the published snapshot,
	// how many generations the applier is behind the accepted churn,
	// and the apply queue's high-water occupancy since start.
	MetricServeSnapshotAgeUs = "serve_snapshot_age_us"
	MetricServeRepairLag     = "serve_repair_lag_gens"
	MetricServeQueueHWM      = "serve_apply_queue_hwm"
	// Binary wire-protocol data plane (internal/serve WireServer):
	// connection lifecycle and the frame/error-frame flow.
	MetricWireConns       = "wire_conns_active"
	MetricWireAccepted    = "wire_conns_accepted_total"
	MetricWireFrames      = "wire_frames_total"
	MetricWireErrorFrames = "wire_error_frames_total"
	// Self-healing monitor metrics (internal/monitor): probe sweep
	// outcomes, fault declarations driven through the apply path, and
	// flap-suppression activity.
	MetricMonitorProbesTotal     = "monitor_probes_total"
	MetricMonitorMissesTotal     = "monitor_probe_misses_total"
	MetricMonitorDeclaredTotal   = "monitor_declared_total"
	MetricMonitorUndeclaredTotal = "monitor_undeclared_total"
	MetricMonitorFlapSuppressed  = "monitor_flap_suppressions_total"
	MetricMonitorApplyErrors     = "monitor_apply_errors_total"
	MetricMonitorDeclaredNodes   = "monitor_declared_nodes"
	// PMC syndrome-diagnosis metrics (internal/diagnose): collect and
	// decode sweeps, verdict split, declarations driven through the
	// apply path, and the decode latency histogram.
	MetricDiagnoseSweepsTotal     = "diagnose_sweeps_total"
	MetricDiagnoseTestsTotal      = "diagnose_tests_total"
	MetricDiagnoseIdentifiedTotal = "diagnose_identified_total"
	MetricDiagnoseAmbiguousTotal  = "diagnose_ambiguous_total"
	MetricDiagnoseDeclaredTotal   = "diagnose_declared_total"
	MetricDiagnoseRecoveredTotal  = "diagnose_recovered_total"
	MetricDiagnoseApplyErrors     = "diagnose_apply_errors_total"
	MetricDiagnoseDeclaredNodes   = "diagnose_declared_nodes"
	MetricLatencyDecode           = "diagnose_decode_us"
)

// RouteObserver builds (or rebuilds) an observer bound to the registry,
// resolving every counter handle once. A nil registry yields a nil
// observer, which every instrumented call site treats as "off".
func (r *Registry) RouteObserver() *RouteObserver {
	if r == nil {
		return nil
	}
	return &RouteObserver{
		reg:      r,
		unicasts: r.Counter(MetricUnicastsTotal),
		cond: [4]*Counter{
			CondCodeNone: r.Counter(MetricAdmitNoneTotal),
			CondCodeC1:   r.Counter(MetricAdmitC1Total),
			CondCodeC2:   r.Counter(MetricAdmitC2Total),
			CondCodeC3:   r.Counter(MetricAdmitC3Total),
		},
		outcome: [3]*Counter{
			OutcomeOptimal - 1:    r.Counter(MetricOutcomeOptimal),
			OutcomeSuboptimal - 1: r.Counter(MetricOutcomeSuboptimal),
			OutcomeFailure - 1:    r.Counter(MetricOutcomeFailure),
		},
		hops:     r.Counter(MetricHopsTotal),
		spares:   r.Counter(MetricSpareHopsTotal),
		blocked:  r.Counter(MetricBlockedTotal),
		reroutes: r.Counter(MetricReroutesTotal),
		aborts:   r.Counter(MetricRerouteAbortsTotal),
		errors:   r.Counter(MetricForwardErrorsTotal),
		hammingH: r.Histogram(MetricHammingHist),
		hopsH:    r.Histogram(MetricHopsHist),
		stretchH: r.Histogram(MetricStretchHist, 0, 1, 2, 3, 4, 8),
	}
}

// Keep adds a finished trace to the registry's ring of recent traces,
// when KeepTraces enabled it.
func (o *RouteObserver) Keep(t *RouteTrace) {
	if o != nil {
		o.reg.keepTrace(t)
	}
}
