package obs

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Flight recorder: an always-on, lock-free ring of compact per-request
// records on the serving path. Aggregate counters say THAT something
// degraded; the flight recorder says WHICH request, against WHICH
// snapshot generation, admitted under WHICH safety-level case, and how
// far its path strayed from the Hamming distance. Anomalous requests
// (errors, route failures, non-minimal paths, latency over a per-kind
// threshold, torn-publication canary trips) are additionally promoted
// to a small bounded incident buffer together with a full per-hop
// RouteTrace, so a p999 histogram exemplar links to a replayable
// decision sequence.
//
// Hot-path cost model: one atomic ID allocation, one packed seqlock
// ring write (stamp claim + 4 payload words + stamp commit, all
// word-sized atomics), and a handful of integer packs — no allocation,
// no lock, no string. Trace reconstruction (which does allocate) runs
// only on promotion, and promotion is rare by construction.

// ReqKind classifies the serving-path request a flight record covers.
type ReqKind uint8

const (
	// ReqRoute is a single-unicast read (RouteCtx).
	ReqRoute ReqKind = iota
	// ReqBatch is a batched read (BatchUnicastCtx).
	ReqBatch
	// ReqRouteAll is a full fan-out read (RouteAllCtx).
	ReqRouteAll
	// ReqApply is a churn write (only recorded when refused: backlog).
	ReqApply
	// ReqDiagnose is one PMC diagnosis sweep (internal/diagnose
	// Reconciler.Tick): an Ambiguous decode records OutcomeFailure,
	// which the anomaly classifier promotes to an incident.
	ReqDiagnose

	numReqKinds
)

// String names the request kind.
func (k ReqKind) String() string {
	switch k {
	case ReqRoute:
		return "route"
	case ReqBatch:
		return "batch"
	case ReqRouteAll:
		return "routeall"
	case ReqApply:
		return "apply"
	case ReqDiagnose:
		return "diagnose"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// MarshalText renders the kind for JSON exposition.
func (k ReqKind) MarshalText() ([]byte, error) { return []byte(k.String()), nil }

// UnmarshalText parses the exposition form (used by the tests that
// decode /debug/flight and by tools replaying its dumps).
func (k *ReqKind) UnmarshalText(b []byte) error {
	switch string(b) {
	case "route":
		*k = ReqRoute
	case "batch":
		*k = ReqBatch
	case "routeall":
		*k = ReqRouteAll
	case "apply":
		*k = ReqApply
	case "diagnose":
		*k = ReqDiagnose
	default:
		return fmt.Errorf("obs: unknown request kind %q", b)
	}
	return nil
}

// ErrClass buckets the serving-path error a request resolved with.
// ErrClassNone means the request was served; a route the safety-level
// admission refused carries OutcomeFailure plus ErrClassUnreachable.
type ErrClass uint8

const (
	ErrClassNone ErrClass = iota
	// ErrClassOverload: shed by token-bucket admission (ErrOverload).
	ErrClassOverload
	// ErrClassBacklog: churn refused by a full apply queue (ErrBacklog).
	ErrClassBacklog
	// ErrClassDeadline: the caller's context deadline expired.
	ErrClassDeadline
	// ErrClassCanceled: the caller's context was canceled.
	ErrClassCanceled
	// ErrClassDraining: refused during shutdown drain (ErrDraining).
	ErrClassDraining
	// ErrClassTorn: the torn-publication canary tripped (a snapshot
	// observed with gen != genCheck). Never expected in production.
	ErrClassTorn
	// ErrClassOther: a transport anomaly (core.Route.Err) or an
	// unclassified error.
	ErrClassOther
	// ErrClassUnreachable: the router refused the pair at admission —
	// no safe route exists under the current fault state (the paper's
	// Theorem-4 disconnected-detection surface). Distinct from
	// ErrClassOther so a partition reads as "unreachable", not as a
	// generic transport anomaly. Must stay within the record format's
	// 4-bit error field (15 max).
	ErrClassUnreachable
)

// String names the error class ("" for none, matching omitempty).
func (e ErrClass) String() string {
	switch e {
	case ErrClassNone:
		return ""
	case ErrClassOverload:
		return "overload"
	case ErrClassBacklog:
		return "backlog"
	case ErrClassDeadline:
		return "deadline"
	case ErrClassCanceled:
		return "canceled"
	case ErrClassDraining:
		return "draining"
	case ErrClassTorn:
		return "torn"
	case ErrClassOther:
		return "other"
	case ErrClassUnreachable:
		return "unreachable"
	default:
		return fmt.Sprintf("err(%d)", int(e))
	}
}

// MarshalText renders the error class for JSON exposition.
func (e ErrClass) MarshalText() ([]byte, error) { return []byte(e.String()), nil }

// UnmarshalText parses the exposition form.
func (e *ErrClass) UnmarshalText(b []byte) error {
	switch string(b) {
	case "":
		*e = ErrClassNone
	case "overload":
		*e = ErrClassOverload
	case "backlog":
		*e = ErrClassBacklog
	case "deadline":
		*e = ErrClassDeadline
	case "canceled":
		*e = ErrClassCanceled
	case "draining":
		*e = ErrClassDraining
	case "torn":
		*e = ErrClassTorn
	case "other":
		*e = ErrClassOther
	case "unreachable":
		*e = ErrClassUnreachable
	default:
		return fmt.Errorf("obs: unknown error class %q", b)
	}
	return nil
}

// CondCode is the admission condition in compact form, numerically
// aligned with core.Condition (0 none, 1 C1, 2 C2, 3 C3).
type CondCode uint8

const (
	CondCodeNone CondCode = iota
	CondCodeC1
	CondCodeC2
	CondCodeC3
)

// String names the condition as the paper does.
func (c CondCode) String() string {
	switch c {
	case CondCodeC1:
		return "C1"
	case CondCodeC2:
		return "C2"
	case CondCodeC3:
		return "C3"
	default:
		return "none"
	}
}

// MarshalText renders the condition for JSON exposition.
func (c CondCode) MarshalText() ([]byte, error) { return []byte(c.String()), nil }

// UnmarshalText parses the exposition form.
func (c *CondCode) UnmarshalText(b []byte) error {
	switch string(b) {
	case "none":
		*c = CondCodeNone
	case "C1":
		*c = CondCodeC1
	case "C2":
		*c = CondCodeC2
	case "C3":
		*c = CondCodeC3
	default:
		return fmt.Errorf("obs: unknown condition %q", b)
	}
	return nil
}

// OutcomeCode is the routing outcome in compact form: 0 means the
// request never reached the router (refused or a churn write),
// otherwise core.Outcome + 1.
type OutcomeCode uint8

const (
	OutcomeNone OutcomeCode = iota
	OutcomeOptimal
	OutcomeSuboptimal
	OutcomeFailure
)

// String names the outcome ("" for not-routed, matching omitempty).
func (o OutcomeCode) String() string {
	switch o {
	case OutcomeOptimal:
		return "optimal"
	case OutcomeSuboptimal:
		return "suboptimal"
	case OutcomeFailure:
		return "failure"
	default:
		return ""
	}
}

// MarshalText renders the outcome for JSON exposition.
func (o OutcomeCode) MarshalText() ([]byte, error) { return []byte(o.String()), nil }

// UnmarshalText parses the exposition form.
func (o *OutcomeCode) UnmarshalText(b []byte) error {
	switch string(b) {
	case "":
		*o = OutcomeNone
	case "optimal":
		*o = OutcomeOptimal
	case "suboptimal":
		*o = OutcomeSuboptimal
	case "failure":
		*o = OutcomeFailure
	default:
		return fmt.Errorf("obs: unknown outcome %q", b)
	}
	return nil
}

// FlightRecord is one request's compact flight entry. In the ring it is
// packed into four 64-bit payload words (see pack); the struct form is
// what readers and the JSON endpoints see. Field ranges are clamped at
// pack time: generation and microsecond fields to 32 bits, hop counts
// to 12 bits, detours to 8, items to 16 — far beyond anything the
// serving path produces, and documented in DESIGN.md §10.
type FlightRecord struct {
	// ID is the request ID, allocated per context-aware request and
	// propagated through the router (core.Route.FlightID) and into the
	// latency histogram exemplars.
	ID   uint64  `json:"id"`
	Kind ReqKind `json:"kind"`
	// Gen is the generation of the snapshot the request was served
	// against (0 for requests refused before snapshot selection).
	Gen uint64 `json:"gen"`
	// Start is the admission wall time in Unix seconds — coarse on
	// purpose; ordering within the ring is by ID.
	Start int64 `json:"start_unix,omitempty"`
	// LatencyUS is the serving latency in microseconds.
	LatencyUS int64 `json:"latency_us"`
	// DeadlineUS is the request's remaining deadline budget at
	// admission, in microseconds (0 when the context had no deadline).
	DeadlineUS int64 `json:"deadline_us,omitempty"`
	// Hamming, Hops and Detours carry the route-quality triple of a
	// single unicast: H(s,d), links traveled, and spare-dimension
	// detour hops. For every delivered safety-level route,
	// Hops - Hamming == 2*Detours (the property test pins this).
	Hamming int `json:"hamming,omitempty"`
	Hops    int `json:"hops,omitempty"`
	Detours int `json:"detours,omitempty"`
	// Items is the request size: 1 for a route, the pair count for a
	// batch, the destination count for a fan-out, the event count for a
	// refused churn write.
	Items int `json:"items,omitempty"`
	// Cond is the safety-level admission case (C1/C2/C3) that held at
	// the source; Outcome the resulting class.
	Cond    CondCode    `json:"cond"`
	Outcome OutcomeCode `json:"outcome,omitempty"`
	// Err is the serving-path error class, if the request was refused
	// or hit a transport anomaly.
	Err ErrClass `json:"err,omitempty"`
	// Stale marks a read served while churn was queued behind the
	// published snapshot.
	Stale bool `json:"stale,omitempty"`
}

// clampU32 clamps a non-negative int64 into 32 bits.
func clampU32(v int64) uint64 {
	if v < 0 {
		return 0
	}
	if v > 0xffffffff {
		return 0xffffffff
	}
	return uint64(v)
}

func clampN(v, max int) uint64 {
	if v < 0 {
		return 0
	}
	if v > max {
		return uint64(max)
	}
	return uint64(v)
}

// pack encodes the record into the four ring payload words.
func (rec *FlightRecord) pack() (w0, w1, w2, w3 uint64) {
	w0 = rec.ID
	g := rec.Gen
	if g > 0xffffffff {
		g = 0xffffffff
	}
	w1 = g<<32 | clampU32(rec.LatencyUS)
	w2 = clampU32(rec.DeadlineUS)<<32 | uint64(uint32(rec.Start))
	w3 = uint64(rec.Kind&0xf) |
		uint64(rec.Cond&0x3)<<4 |
		uint64(rec.Outcome&0x3)<<6 |
		uint64(rec.Err&0xf)<<8
	if rec.Stale {
		w3 |= 1 << 12
	}
	w3 |= clampN(rec.Hamming, 0xfff) << 16
	w3 |= clampN(rec.Hops, 0xfff) << 28
	w3 |= clampN(rec.Detours, 0xff) << 40
	w3 |= clampN(rec.Items, 0xffff) << 48
	return
}

// unpack decodes a ring slot back into the struct form.
func unpack(w0, w1, w2, w3 uint64) FlightRecord {
	return FlightRecord{
		ID:         w0,
		Gen:        w1 >> 32,
		LatencyUS:  int64(w1 & 0xffffffff),
		DeadlineUS: int64(w2 >> 32),
		Start:      int64(int32(uint32(w2 & 0xffffffff))),
		Kind:       ReqKind(w3 & 0xf),
		Cond:       CondCode(w3 >> 4 & 0x3),
		Outcome:    OutcomeCode(w3 >> 6 & 0x3),
		Err:        ErrClass(w3 >> 8 & 0xf),
		Stale:      w3>>12&1 == 1,
		Hamming:    int(w3 >> 16 & 0xfff),
		Hops:       int(w3 >> 28 & 0xfff),
		Detours:    int(w3 >> 40 & 0xff),
		Items:      int(w3 >> 48 & 0xffff),
	}
}

// flightSlot is one seqlock-protected ring entry. The writer claims
// the slot by swapping its stamp to slotBusy (a slot that was already
// busy stays busy and is left to its holder), stores the payload words,
// then commits its per-shard sequence number as the stamp; a reader accepts a slot only when the stamp is a committed
// sequence number and unchanged across its payload reads. The claim
// keeps two writers whose sequence numbers differ by the shard's slot
// count out of the slot at once, so payload stores never interleave.
// Each sequence number is committed at most once, so a stamp value
// never recurs on a slot and an interrupted write is always detected.
type flightSlot struct {
	stamp atomic.Uint64
	w0    atomic.Uint64
	w1    atomic.Uint64
	w2    atomic.Uint64
	w3    atomic.Uint64
}

// flightShard is one independently-sequenced slice of the ring. Writers
// pick a shard by request ID, so concurrent writers contend on a shard
// counter only 1/nshards of the time; padding keeps the counters off
// each other's cache lines.
type flightShard struct {
	seq   atomic.Uint64
	_     [56]byte
	slots []flightSlot
	mask  uint64
}

// FlightOptions size a FlightRecorder. The zero value is ready to use.
type FlightOptions struct {
	// Records bounds the ring (total across shards, rounded up to a
	// power of two per shard; <= 0 means 1024).
	Records int
	// Incidents bounds the promoted-incident buffer (<= 0 means 64).
	Incidents int
	// SlowRouteUS is the single-unicast latency anomaly threshold in
	// microseconds (<= 0 means 50ms). Batches are slow from 250ms and
	// fan-outs from 1s.
	SlowRouteUS int64
	// Registry, when non-nil, receives the recorder's own counters
	// (flight_records_total, flight_incidents_total).
	Registry *Registry
}

// Flight recorder metric names.
const (
	MetricFlightRecords   = "flight_records_total"
	MetricFlightIncidents = "flight_incidents_total"
)

// Default per-kind slow thresholds (µs).
const (
	defaultSlowRouteUS    = 50_000
	defaultSlowBatchUS    = 250_000
	defaultSlowRouteAllUS = 1_000_000
)

const flightShards = 8

// slotBusy is the stamp of a ring slot a writer has claimed and not yet
// committed.
const slotBusy = ^uint64(0)

// defaultPromoteGapUS throttles incident promotion: within one anomaly
// class (each error class, route-failure, non-minimal, slow), at most
// one record per gap (1ms) is promoted. Under a fault load every route
// past a faulty region is non-minimal, so promoting each one would
// churn the bounded incident buffer with duplicates and put trace
// reconstruction on the hot path; one exemplar per class per gap keeps
// promotion cost amortized to nothing while the ring still records
// every request.
const defaultPromoteGapUS = 1000

// Anomaly classes for the promotion throttle: one slot per error class
// (ErrClassOverload..ErrClassUnreachable), then route-failure,
// non-minimal and slow.
const (
	classFailure = iota + int(ErrClassUnreachable) // error classes occupy 0..Unreachable-1
	classNonMinimal
	classSlow
	numAnomalyClasses
)

// FlightRecorder is the always-on request recorder. All methods are
// safe for arbitrary concurrent use; a nil recorder is a no-op.
type FlightRecorder struct {
	ids    atomic.Uint64
	shards [flightShards]flightShard
	slow   [numReqKinds]int64

	// promoteGapUS throttles promotion per anomaly class (tests set it;
	// <= 0 promotes every anomaly); lastPromote holds each class's last
	// promotion time in Unix microseconds.
	promoteGapUS int64
	lastPromote  [numAnomalyClasses]atomic.Int64

	mu          sync.Mutex
	incidents   []*Incident
	incidentCap int
	promoted    uint64

	mRecords   *Counter
	mIncidents *Counter
}

// NewFlightRecorder builds a recorder sized by opts.
func NewFlightRecorder(opts FlightOptions) *FlightRecorder {
	records := opts.Records
	if records <= 0 {
		records = 1024
	}
	per := 8
	for per*flightShards < records {
		per <<= 1
	}
	f := &FlightRecorder{
		incidentCap:  opts.Incidents,
		promoteGapUS: defaultPromoteGapUS,
		mRecords:     opts.Registry.Counter(MetricFlightRecords),
		mIncidents:   opts.Registry.Counter(MetricFlightIncidents),
	}
	if f.incidentCap <= 0 {
		f.incidentCap = 64
	}
	for i := range f.shards {
		f.shards[i].slots = make([]flightSlot, per)
		f.shards[i].mask = uint64(per - 1)
	}
	f.slow[ReqRoute] = opts.SlowRouteUS
	if f.slow[ReqRoute] <= 0 {
		f.slow[ReqRoute] = defaultSlowRouteUS
	}
	f.slow[ReqBatch] = defaultSlowBatchUS
	f.slow[ReqRouteAll] = defaultSlowRouteAllUS
	return f
}

// NextID allocates the next request ID (1-based; 0 is "unrecorded").
func (f *FlightRecorder) NextID() uint64 {
	if f == nil {
		return 0
	}
	return f.ids.Add(1)
}

// Record writes rec into the ring and returns the anomaly reason if
// the record should be promoted to an incident ("" for a healthy
// request, or for an anomaly throttled by the per-class promotion
// gap). This is the hot-path entry: no allocation, no lock.
func (f *FlightRecorder) Record(rec *FlightRecord) string {
	if f == nil {
		return ""
	}
	sh := &f.shards[rec.ID%flightShards]
	w0, w1, w2, w3 := rec.pack()
	var seq uint64
	var sl *flightSlot
	for {
		// A slot another writer still holds is left to it; this writer
		// takes the next sequence number instead.
		seq = sh.seq.Add(1)
		sl = &sh.slots[seq&sh.mask]
		if sl.stamp.Swap(slotBusy) != slotBusy {
			break
		}
	}
	sl.w0.Store(w0)
	sl.w1.Store(w1)
	sl.w2.Store(w2)
	sl.w3.Store(w3)
	sl.stamp.Store(seq)
	f.mRecords.Inc()
	reason, class := f.anomaly(rec)
	if reason == "" {
		return ""
	}
	if f.promoteGapUS > 0 {
		// One promotion per class per gap; the CAS makes concurrent
		// anomalies of one class elect a single winner.
		if class < 0 || class >= numAnomalyClasses {
			class = 0
		}
		now := time.Now().UnixMicro()
		last := f.lastPromote[class].Load()
		if now-last < f.promoteGapUS || !f.lastPromote[class].CompareAndSwap(last, now) {
			return ""
		}
	}
	return reason
}

// anomaly classifies a record against the promotion triggers,
// returning the reason and the throttle class.
func (f *FlightRecorder) anomaly(rec *FlightRecord) (string, int) {
	if rec.Err != ErrClassNone {
		return "error:" + rec.Err.String(), int(rec.Err) - 1
	}
	if rec.Outcome == OutcomeFailure {
		if rec.Kind == ReqDiagnose {
			return "diagnosis-ambiguous", classFailure
		}
		return "route-failure", classFailure
	}
	if rec.Detours > 0 || (rec.Outcome != OutcomeNone && rec.Hops > rec.Hamming) {
		return "non-minimal", classNonMinimal
	}
	if s := f.slow[rec.Kind%numReqKinds]; s > 0 && rec.LatencyUS >= s {
		return "slow", classSlow
	}
	return "", 0
}

// Incident is one promoted anomaly: the flight record, the reason it
// tripped, and (for single unicasts) the reconstructed per-hop trace.
type Incident struct {
	// Seq is the promotion sequence number (1-based, monotonic).
	Seq uint64 `json:"seq"`
	// Reason names the trigger: "error:<class>", "route-failure",
	// "diagnosis-ambiguous", "non-minimal", "slow", or
	// "summary-mismatch" (a wire answer decided at the source that its
	// sampled walk contradicted; internal/serve promotes it directly).
	Reason string `json:"reason"`
	// AtUS is the promotion wall time in Unix microseconds.
	AtUS   int64        `json:"at_us"`
	Record FlightRecord `json:"record"`
	Trace  *RouteTrace  `json:"trace,omitempty"`
}

// Promote appends an incident for rec (reason as returned by Record;
// trace may be nil for batch/fan-out/refused requests). The buffer
// keeps the most recent Incidents entries.
func (f *FlightRecorder) Promote(rec *FlightRecord, reason string, trace *RouteTrace) {
	if f == nil {
		return
	}
	inc := &Incident{Reason: reason, AtUS: time.Now().UnixMicro(), Record: *rec, Trace: trace}
	f.mu.Lock()
	f.promoted++
	inc.Seq = f.promoted
	f.incidents = append(f.incidents, inc)
	if len(f.incidents) > f.incidentCap {
		f.incidents = append(f.incidents[:0], f.incidents[len(f.incidents)-f.incidentCap:]...)
	}
	f.mu.Unlock()
	f.mIncidents.Inc()
}

// FlightSnapshot is the JSON view of the ring (/debug/flight).
type FlightSnapshot struct {
	// Issued is the number of request IDs allocated so far.
	Issued uint64 `json:"issued"`
	// Capacity is the total ring capacity in records.
	Capacity int `json:"capacity"`
	// Records holds the retained records, newest first.
	Records []FlightRecord `json:"records"`
}

// Records returns the currently retained records, newest first,
// truncated to max when max > 0. Reads race benignly with writers:
// slots caught mid-write are skipped, never returned torn.
func (f *FlightRecorder) Records(max int) []FlightRecord {
	if f == nil {
		return nil
	}
	out := make([]FlightRecord, 0, 64)
	for i := range f.shards {
		sh := &f.shards[i]
		for j := range sh.slots {
			sl := &sh.slots[j]
			st := sl.stamp.Load()
			if st == 0 || st == slotBusy {
				continue
			}
			w0, w1, w2, w3 := sl.w0.Load(), sl.w1.Load(), sl.w2.Load(), sl.w3.Load()
			if sl.stamp.Load() != st {
				continue
			}
			out = append(out, unpack(w0, w1, w2, w3))
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a].ID > out[b].ID })
	if max > 0 && len(out) > max {
		out = out[:max]
	}
	return out
}

// Snapshot captures the ring for export. max > 0 truncates to the max
// newest records.
func (f *FlightRecorder) Snapshot(max int) *FlightSnapshot {
	s := &FlightSnapshot{Records: []FlightRecord{}}
	if f == nil {
		return s
	}
	s.Issued = f.ids.Load()
	for i := range f.shards {
		s.Capacity += len(f.shards[i].slots)
	}
	s.Records = f.Records(max)
	return s
}

// IncidentSnapshot is the JSON view of the incident buffer
// (/debug/incidents).
type IncidentSnapshot struct {
	// Total counts promotions ever (>= len(Incidents)).
	Total uint64 `json:"total"`
	// Capacity is the buffer bound.
	Capacity int `json:"capacity"`
	// Incidents holds the retained incidents, newest first.
	Incidents []*Incident `json:"incidents"`
}

// Incidents captures the incident buffer, newest first.
func (f *FlightRecorder) Incidents() *IncidentSnapshot {
	s := &IncidentSnapshot{Incidents: []*Incident{}}
	if f == nil {
		return s
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	s.Total = f.promoted
	s.Capacity = f.incidentCap
	for i := len(f.incidents) - 1; i >= 0; i-- {
		s.Incidents = append(s.Incidents, f.incidents[i])
	}
	return s
}
