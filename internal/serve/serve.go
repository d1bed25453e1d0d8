package serve

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/topo"
)

// ErrClosed is returned by mutations submitted after Close.
var ErrClosed = errors.New("serve: service closed")

// ErrBacklog is returned by TryApply when the apply queue is full — the
// backpressure signal of a churn storm.
var ErrBacklog = errors.New("serve: apply queue full")

// Request is one unicast query of a batch.
type Request = core.Pair

// Snapshot is one immutable published state: a safety-level assignment
// detached from the live fault oracle (core.Assignment.Detach), stamped
// with the fault-set generation it corresponds to. All methods are safe
// for arbitrary concurrent use; nothing in a Snapshot ever mutates.
type Snapshot struct {
	// gen and genCheck carry the same generation; they are written once
	// at construction and compared by readers (and TestServeChurn) as a
	// torn-publication canary. A snapshot observed with gen != genCheck
	// would mean the pointer swap exposed a half-built value.
	gen uint64
	as  *core.Assignment
	rt  *core.Router
	// ref is rt without the observer: it re-walks answers already
	// counted, for incident traces and the sampled summary check.
	ref      *core.Router
	at       time.Time
	genCheck uint64
}

// newSnapshot builds a snapshot around a detached assignment. The
// routers are shared by every reader of the snapshot: core.Router
// carries no per-unicast state, and the observer is the counter-only
// kind, which is safe for concurrent use.
func newSnapshot(gen uint64, det *core.Assignment, ro *obs.RouteObserver) *Snapshot {
	return &Snapshot{
		gen:      gen,
		as:       det,
		rt:       core.NewRouter(det, nil).Observe(ro),
		ref:      core.NewRouter(det, nil),
		at:       time.Now(),
		genCheck: gen,
	}
}

// Age returns how long ago the snapshot was published — the staleness
// a reader routed against, exported as serve_snapshot_age_us.
func (sn *Snapshot) Age() time.Duration { return time.Since(sn.at) }

// Generation returns the fault-set generation the snapshot was built
// from.
func (sn *Snapshot) Generation() uint64 { return sn.gen }

// Consistent reports whether the generation stamp survived publication
// untorn. With atomic.Pointer publication this is always true; the
// method exists so the churn tests can assert it under -race.
func (sn *Snapshot) Consistent() bool { return sn.gen == sn.genCheck }

// Assignment returns the snapshot's (immutable) safety-level
// assignment.
func (sn *Snapshot) Assignment() *core.Assignment { return sn.as }

// Level returns node a's public safety level in this snapshot.
func (sn *Snapshot) Level(a topo.NodeID) int { return sn.as.Level(a) }

// Faults returns the snapshot's fault view, consistent with the levels
// the snapshot routes on. The detached assignment keeps only the link
// faults; the first call builds the full set from its own-level table
// (core.Assignment.Faults), once per snapshot, and every later call
// returns that set. Diagnosis front-ends collect syndromes from it so
// every test in one sweep sees one generation. Treat it as read-only.
func (sn *Snapshot) Faults() *faults.Set { return sn.as.Faults() }

// Route unicasts from src to dst pinned to this snapshot, outside
// admission and the flight recorder. Callers that must answer several
// queries against one consistent state (the property tests, the
// benchmark ladder) hold a snapshot and route on it directly.
func (sn *Snapshot) Route(src, dst topo.NodeID) *core.Route {
	return sn.rt.Unicast(src, dst)
}

// Summary decides the unicast from src to dst at the source, pinned to
// this snapshot, without walking it (core.Router.Summary). Every
// served snapshot is a fixpoint, because the applier always converges
// fully, so by Theorem 3 it equals Route(src, dst).Summary().
func (sn *Snapshot) Summary(src, dst topo.NodeID) core.Summary {
	return sn.rt.Summary(src, dst)
}

// Options tune a Service. The zero value serves with a 64-entry apply
// queue, no admission control and no metrics, with the flight recorder
// on. Routes break ties toward the lowest dimension (core.LowestDim),
// and the applier always converges the levels fully.
type Options struct {
	// QueueDepth bounds the apply queue (<= 0 means 64). A full queue
	// blocks Apply and refuses TryApply; readers are unaffected.
	QueueDepth int
	// Rate caps admitted work at this many unicasts per second through
	// a token bucket (RouteCtx and a wire unicast or feasibility frame
	// cost 1, BatchUnicastCtx and a wire batch one per item,
	// RouteAllCtx one per destination). <= 0 disables admission
	// control. Shed requests fail fast with ErrOverload.
	Rate float64
	// Burst is the token-bucket depth in unicasts (< 1 means 1). Only
	// meaningful when Rate > 0.
	Burst int
	// Registry receives the per-service metrics (nil disables).
	Registry *obs.Registry
	// Flight supplies a pre-built flight recorder (shared across
	// services, or sized via obs.FlightOptions). When nil, the service
	// builds a default recorder — the flight recorder is on by default;
	// set NoFlight to serve without one.
	Flight *obs.FlightRecorder
	// NoFlight disables the flight recorder entirely (benchmarking the
	// bare path; ignored when Flight is non-nil).
	NoFlight bool
}

// applyMsg is one unit of the apply queue: a churn batch, or a barrier
// marker (events == nil) whose done channel closes once every earlier
// message has been fully applied and published.
type applyMsg struct {
	events []faults.ChurnEvent
	done   chan struct{}
}

// Service is the concurrent route-serving engine over one topology. All
// exported methods are safe for concurrent use; construction is the
// only exception (New publishes the first snapshot itself).
type Service struct {
	t   topo.Topology
	cur atomic.Pointer[Snapshot]

	queue  chan applyMsg
	closed chan struct{}
	once   sync.Once
	wg     sync.WaitGroup

	// Applier-owned state: the live fault oracle and the repair seed.
	// Nothing outside the applier goroutine touches these after New.
	set     *faults.Set
	live    *core.Assignment
	liveGen uint64

	// Hardened read-path state (harden.go): lifecycle phase, in-flight
	// request count for drain ordering, and the admission bucket.
	phase     atomic.Int32
	inflight  atomic.Int64
	drained   chan struct{}
	drainOnce sync.Once
	bucket    *tokenBucket

	// Metric handles, resolved once (nil-safe no-ops when
	// uninstrumented).
	routeObs   *obs.RouteObserver
	mGen       *obs.Gauge
	mSwaps     *obs.Counter
	mSwapHist  *obs.Histogram
	mRepairs   *obs.Counter
	mCold      *obs.Counter
	mDepth     *obs.Gauge
	mApplied   *obs.Counter
	mApplyErrs *obs.Counter
	mRejected  *obs.Counter
	mCoalesced *obs.Counter
	mRoutes    *obs.Counter
	mStale     *obs.Counter
	mBatches   *obs.Counter
	mBatchN    *obs.Counter
	mFanouts   *obs.Counter
	mFanoutN   *obs.Counter
	mMismatch  *obs.Counter

	mOverload    *obs.Counter
	mDeadline    *obs.Counter
	mInflight    *obs.Gauge
	mDraining    *obs.Gauge
	mLatRoute    *obs.Histogram
	mLatBatch    *obs.Histogram
	mLatRouteAll *obs.Histogram
	mRepairLag   *obs.Gauge
	mQueueHWM    *obs.Gauge

	// flight is the always-on request recorder (nil only with
	// Options.NoFlight).
	flight *obs.FlightRecorder
}

// New starts a service over the fault state of set, which is cloned:
// the service's churn stream and the caller's set evolve independently
// afterwards. The initial snapshot is computed synchronously, so a
// freshly constructed service answers queries immediately.
func New(set *faults.Set, opts Options) (*Service, error) {
	if set == nil {
		return nil, errors.New("serve: nil fault set")
	}
	depth := opts.QueueDepth
	if depth <= 0 {
		depth = 64
	}
	s := &Service{
		t:       set.Topology(),
		queue:   make(chan applyMsg, depth),
		closed:  make(chan struct{}),
		drained: make(chan struct{}),
		set:     set.Clone(),
		bucket:  newTokenBucket(opts.Rate, opts.Burst),
	}
	switch {
	case opts.Flight != nil:
		s.flight = opts.Flight
	case !opts.NoFlight:
		s.flight = obs.NewFlightRecorder(obs.FlightOptions{Registry: opts.Registry})
	}
	s.bindMetrics(opts.Registry)
	s.live = core.Compute(s.set, core.Options{})
	s.liveGen = s.set.Generation()
	s.publish(s.live, s.liveGen, false)
	s.wg.Add(1)
	go s.applier()
	return s, nil
}

// bindMetrics resolves every metric handle once. A nil registry leaves
// all handles nil, which the obs layer treats as "off".
func (s *Service) bindMetrics(r *obs.Registry) {
	s.routeObs = r.RouteObserver()
	s.mGen = r.Gauge(obs.MetricServeSnapshotGen)
	s.mSwaps = r.Counter(obs.MetricServeSwapsTotal)
	s.mSwapHist = r.LatencyHistogram(obs.MetricServeSwapMicros)
	s.mRepairs = r.Counter(obs.MetricServeRepairsTotal)
	s.mCold = r.Counter(obs.MetricServeColdTotal)
	s.mDepth = r.Gauge(obs.MetricServeQueueDepth)
	s.mApplied = r.Counter(obs.MetricServeApplyTotal)
	s.mApplyErrs = r.Counter(obs.MetricServeApplyErrors)
	s.mRejected = r.Counter(obs.MetricServeApplyRejected)
	s.mCoalesced = r.Counter(obs.MetricServeApplyCoalesced)
	s.mRoutes = r.Counter(obs.MetricServeRoutesTotal)
	s.mStale = r.Counter(obs.MetricServeStaleReads)
	s.mBatches = r.Counter(obs.MetricServeBatchesTotal)
	s.mBatchN = r.Counter(obs.MetricServeBatchItems)
	s.mFanouts = r.Counter(obs.MetricServeFanoutsTotal)
	s.mFanoutN = r.Counter(obs.MetricServeFanoutItems)
	s.mMismatch = r.Counter(obs.MetricServeSummaryMismatch)
	s.mOverload = r.Counter(obs.MetricServeOverloadTotal)
	s.mDeadline = r.Counter(obs.MetricServeDeadlineTotal)
	s.mInflight = r.Gauge(obs.MetricServeInflight)
	s.mDraining = r.Gauge(obs.MetricServeDraining)
	s.mLatRoute = r.LatencyHistogram(obs.MetricLatencyRoute)
	s.mLatBatch = r.LatencyHistogram(obs.MetricLatencyBatch)
	s.mLatRouteAll = r.LatencyHistogram(obs.MetricLatencyRouteAll)
	s.mRepairLag = r.Gauge(obs.MetricServeRepairLag)
	s.mQueueHWM = r.Gauge(obs.MetricServeQueueHWM)
	// Snapshot age is derived at scrape time, not pushed per request.
	// Registered before the first publish, so guard the nil snapshot.
	r.GaugeFunc(obs.MetricServeSnapshotAgeUs, func() int64 {
		sn := s.cur.Load()
		if sn == nil {
			return 0
		}
		return sn.Age().Microseconds()
	})
}

// Flight returns the service's flight recorder (nil with NoFlight).
func (s *Service) Flight() *obs.FlightRecorder { return s.flight }

// Topology returns the topology the service routes over.
func (s *Service) Topology() topo.Topology { return s.t }

// Current returns the currently published snapshot. The caller may hold
// it indefinitely; it never mutates.
func (s *Service) Current() *Snapshot { return s.cur.Load() }

// Generation returns the generation of the published snapshot.
func (s *Service) Generation() uint64 { return s.cur.Load().Generation() }

// CurrentFaults returns the published snapshot's fault view (see
// Snapshot.Faults), built on the snapshot's first call and shared by
// every later one. Lock-free; successive calls may observe different
// generations as churn lands.
func (s *Service) CurrentFaults() *faults.Set { return s.cur.Load().Faults() }

// QueueDepth returns the number of apply messages waiting (a live
// backpressure signal; also exported as serve_apply_queue_depth).
func (s *Service) QueueDepth() int { return len(s.queue) }

// validate rejects events that no fault set over this topology could
// ever accept, so the asynchronous applier only ever sees feasible
// mutations (redundant ones — failing an already-faulty node — are
// no-ops by Set semantics).
func (s *Service) validate(events []faults.ChurnEvent) error {
	for _, ev := range events {
		switch ev.Kind {
		case faults.DeltaFailNode, faults.DeltaRecoverNode:
			if !s.t.Contains(ev.A) {
				return fmt.Errorf("serve: node %d outside topology", ev.A)
			}
		case faults.DeltaFailLink, faults.DeltaRecoverLink:
			if !s.t.Contains(ev.A) || !s.t.Contains(ev.B) {
				return fmt.Errorf("serve: link endpoint outside topology")
			}
			if !s.t.Adjacent(ev.A, ev.B) {
				return fmt.Errorf("serve: %d and %d are not adjacent", ev.A, ev.B)
			}
		default:
			return fmt.Errorf("serve: unknown churn event kind %d", ev.Kind)
		}
	}
	return nil
}

// Apply submits churn events, blocking while the queue is full (the
// writer-side backpressure of a churn storm; readers never block). The
// events are applied asynchronously; use Flush to wait for the swap.
func (s *Service) Apply(events ...faults.ChurnEvent) error {
	if len(events) == 0 {
		return nil
	}
	if err := s.validate(events); err != nil {
		return err
	}
	msg := applyMsg{events: append([]faults.ChurnEvent(nil), events...)}
	// Closed is checked on its own first so a closed service refuses
	// deterministically even when the queue also has room.
	select {
	case <-s.closed:
		return ErrClosed
	default:
	}
	select {
	case <-s.closed:
		return ErrClosed
	case s.queue <- msg:
		depth := int64(len(s.queue))
		s.mDepth.Set(depth)
		s.mQueueHWM.Max(depth)
		return nil
	}
}

// TryApply is Apply that refuses with ErrBacklog instead of blocking
// when the queue is full.
func (s *Service) TryApply(events ...faults.ChurnEvent) error {
	if len(events) == 0 {
		return nil
	}
	if err := s.validate(events); err != nil {
		return err
	}
	msg := applyMsg{events: append([]faults.ChurnEvent(nil), events...)}
	select {
	case <-s.closed:
		return ErrClosed
	default:
	}
	select {
	case s.queue <- msg:
		depth := int64(len(s.queue))
		s.mDepth.Set(depth)
		s.mQueueHWM.Max(depth)
		return nil
	default:
		s.mRejected.Inc()
		s.flightRefuse(obs.ReqApply, time.Time{}, nil, len(events), ErrBacklog)
		return ErrBacklog
	}
}

// FailNode enqueues a node failure.
func (s *Service) FailNode(a topo.NodeID) error {
	return s.Apply(faults.ChurnEvent{Kind: faults.DeltaFailNode, A: a})
}

// RecoverNode enqueues a node recovery.
func (s *Service) RecoverNode(a topo.NodeID) error {
	return s.Apply(faults.ChurnEvent{Kind: faults.DeltaRecoverNode, A: a})
}

// FailLink enqueues a link failure.
func (s *Service) FailLink(a, b topo.NodeID) error {
	return s.Apply(faults.ChurnEvent{Kind: faults.DeltaFailLink, A: a, B: b})
}

// RecoverLink enqueues a link recovery.
func (s *Service) RecoverLink(a, b topo.NodeID) error {
	return s.Apply(faults.ChurnEvent{Kind: faults.DeltaRecoverLink, A: a, B: b})
}

// Flush blocks until every event submitted before the call has been
// applied and its snapshot published. If the service is closed
// concurrently, Flush returns early (the final drain releases pending
// barriers best-effort).
func (s *Service) Flush() {
	done := make(chan struct{})
	select {
	case <-s.closed:
		return
	case s.queue <- applyMsg{done: done}:
	}
	select {
	case <-done:
	case <-s.closed:
	}
}

// Close stops the applier after draining the queue. Events accepted
// before Close are applied; later Apply/TryApply calls return
// ErrClosed. Close is idempotent and safe to call concurrently with
// readers, which refuse with ErrDraining from then on; Current keeps
// returning the final snapshot. Close does not wait for in-flight
// requests — use Shutdown for an ordered drain.
func (s *Service) Close() {
	s.phase.Store(phaseStopped)
	s.mDraining.Set(1)
	s.once.Do(func() { close(s.closed) })
	s.wg.Wait()
	// A submitter that raced the shutdown may have enqueued after the
	// applier's final drain; release its barrier so no Flush can hang.
	for {
		select {
		case msg := <-s.queue:
			if msg.done != nil {
				close(msg.done)
			}
		default:
			return
		}
	}
}

// applier is the single writer: it owns the fault oracle, drains the
// queue, reconverges levels, and publishes snapshots.
func (s *Service) applier() {
	defer s.wg.Done()
	for {
		var batch []applyMsg
		select {
		case <-s.closed:
			// Final drain: apply whatever was accepted before Close so
			// Flush barriers in flight are released, then exit.
			for {
				select {
				case msg := <-s.queue:
					batch = append(batch, msg)
				default:
					s.process(batch)
					return
				}
			}
		case msg := <-s.queue:
			batch = append(batch, msg)
		}
		// Coalesce: everything already queued joins this cycle, so a
		// churn storm of k events costs one repair + one swap.
		for {
			select {
			case msg := <-s.queue:
				batch = append(batch, msg)
				continue
			default:
			}
			break
		}
		s.process(batch)
	}
}

// process applies one coalesced batch, publishes at most one snapshot,
// and releases the batch's barriers.
func (s *Service) process(batch []applyMsg) {
	applied := 0
	churnMsgs := 0
	for _, msg := range batch {
		if len(msg.events) > 0 {
			churnMsgs++
		}
		for _, ev := range msg.events {
			if err := s.set.Apply(ev); err != nil {
				// validate() screens impossible events; anything left is
				// a redundant mutation the Set absorbed silently or a
				// bug worth counting.
				s.mApplyErrs.Inc()
			} else {
				applied++
			}
		}
	}
	if churnMsgs > 1 {
		s.mCoalesced.Add(int64(churnMsgs - 1))
	}
	s.mApplied.Add(int64(applied))
	if gen := s.set.Generation(); gen != s.liveGen {
		s.rebuild(gen)
	}
	s.mDepth.Set(int64(len(s.queue)))
	for _, msg := range batch {
		if msg.done != nil {
			close(msg.done)
		}
	}
}

// rebuild reconverges the live assignment to generation gen — by
// incremental repair from the previous fixpoint when the journal
// reaches back, cold otherwise — and publishes the detached result.
func (s *Service) rebuild(gen uint64) {
	// How many generations of accepted churn this rebuild catches up on
	// — the applier's lag behind the write stream.
	s.mRepairLag.Set(int64(gen - s.liveGen))
	start := time.Now()
	var as *core.Assignment
	repaired := false
	if delta, ok := s.set.Since(s.liveGen); ok {
		as, repaired = core.RepairLevels(s.live, s.set, delta, core.Options{})
	}
	if !repaired {
		as = core.Compute(s.set, core.Options{})
		s.mCold.Inc()
	} else {
		s.mRepairs.Inc()
	}
	s.live, s.liveGen = as, gen
	s.publish(as, gen, true)
	s.mSwapHist.ObserveSince(start)
}

// publish detaches the assignment from the live oracle and swaps the
// snapshot pointer — the single write the readers ever observe.
func (s *Service) publish(as *core.Assignment, gen uint64, swap bool) {
	sn := newSnapshot(gen, as.Detach(), s.routeObs)
	s.cur.Store(sn)
	s.mGen.Set(int64(gen))
	if swap {
		s.mSwaps.Inc()
	}
}
