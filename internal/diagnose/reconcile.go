package diagnose

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/topo"
)

// Applier receives fault declarations. Structurally identical to
// monitor.Applier (and the loadgen targets' Fault method), so the same
// serving engine or /fault endpoint plugs into both front-ends.
type Applier interface {
	Fault(ctx context.Context, node int, down bool) error
}

// ApplyFunc adapts a function to the Applier interface.
type ApplyFunc func(ctx context.Context, node int, down bool) error

// Fault implements Applier.
func (f ApplyFunc) Fault(ctx context.Context, node int, down bool) error {
	return f(ctx, node, down)
}

// Dedup is the coalescing middleware between fault-declaring front-ends
// (monitor, diagnose) and the apply path. Two front-ends watching the
// same cube WILL declare the same node — the monitor from missed
// probes, the decoder from the syndrome — and without coalescing the
// shared journal would carry duplicate deltas. Dedup tracks the
// currently-declared view, forwards only actual state changes to the
// underlying applier, and keeps ONE merged journal in which each
// transition appears exactly once. Replaying that journal into an empty
// faults.Set reproduces the declared view, and replaying it twice is a
// no-op — the idempotent-replay property the tests pin.
//
// A forward that fails leaves the view unchanged (and unjournaled), so
// the front-end's own retry logic still applies.
type Dedup struct {
	applier Applier

	mu       sync.Mutex
	declared map[int]bool
	journal  []faults.ChurnEvent

	forwarded, coalesced, failed uint64
}

// NewDedup wraps applier. Share ONE Dedup between every front-end that
// feeds the same engine.
func NewDedup(applier Applier) *Dedup {
	return &Dedup{applier: applier, declared: make(map[int]bool)}
}

// Fault implements Applier with coalescing: a declaration that matches
// the current view is absorbed, a state change is forwarded and (on
// success) journaled.
func (d *Dedup) Fault(ctx context.Context, node int, down bool) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.declared[node] == down {
		d.coalesced++
		return nil
	}
	if err := d.applier.Fault(ctx, node, down); err != nil {
		d.failed++
		return err
	}
	d.declared[node] = down
	kind := faults.DeltaRecoverNode
	if down {
		kind = faults.DeltaFailNode
	}
	d.journal = append(d.journal, faults.ChurnEvent{Kind: kind, A: topo.NodeID(node)})
	d.forwarded++
	return nil
}

// Journal returns a copy of the merged declaration journal: every
// landed state change, in order, each exactly once.
func (d *Dedup) Journal() []faults.ChurnEvent {
	d.mu.Lock()
	defer d.mu.Unlock()
	return append([]faults.ChurnEvent(nil), d.journal...)
}

// Declared lists the nodes currently declared down, ascending.
func (d *Dedup) Declared() []int {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]int, 0, len(d.declared))
	for n, down := range d.declared {
		if down {
			out = append(out, n)
		}
	}
	sort.Ints(out)
	return out
}

// Stats reports (forwarded, coalesced, failed) declaration counts.
func (d *Dedup) Stats() (forwarded, coalesced, failed uint64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.forwarded, d.coalesced, d.failed
}

// Source produces one syndrome per diagnosis sweep.
type Source interface {
	Syndrome(ctx context.Context) (*Syndrome, error)
}

// SourceFunc adapts a function to the Source interface.
type SourceFunc func(ctx context.Context) (*Syndrome, error)

// Syndrome implements Source.
func (f SourceFunc) Syndrome(ctx context.Context) (*Syndrome, error) { return f(ctx) }

// SetSource collects syndromes from a ground-truth fault set — the
// in-process source for tests and the slserve self-diagnosis loop.
type SetSource struct {
	Set *faults.Set
	// Seed and Adversary parameterize the faulty testers, as in
	// Collect.
	Seed      uint64
	Adversary Adversary
}

// Syndrome implements Source.
func (s SetSource) Syndrome(context.Context) (*Syndrome, error) {
	return Collect(s.Set, CollectOptions{Seed: s.Seed, Adversary: s.Adversary}), nil
}

// ReconcilerOptions configure a Reconciler.
type ReconcilerOptions struct {
	// Topology the syndromes decode over. Required.
	Topology topo.Topology
	// Bound overrides the decode fault budget (0 means
	// Diagnosability(Topology)).
	Bound int
	// Interval is the Run sweep cadence (0 means 1s). Tick ignores it.
	Interval time.Duration
	// Registry receives the diagnose_* metrics (nil disables them).
	Registry *obs.Registry
	// Flight, when non-nil, records one ReqDiagnose flight record per
	// sweep; ambiguous sweeps carry OutcomeFailure and promote to
	// incidents.
	Flight *obs.FlightRecorder
	// Now injects the clock for decode latency (nil means time.Now).
	Now func() time.Time
}

// Reconciler closes the diagnosis loop: each Tick collects a syndrome
// from the Source, decodes it, and reconciles the identified fault set
// against what it has already declared — driving every transition
// through the Applier FIRST (exactly like internal/monitor) and
// journaling only transitions that landed. An Ambiguous decode changes
// nothing: the reconciler never acts on a guess, it just counts the
// sweep and leaves the declared view as-is until the syndrome becomes
// decodable again.
type Reconciler struct {
	source  Source
	applier Applier
	opts    ReconcilerOptions

	mu       sync.Mutex
	declared map[int]bool
	journal  []faults.ChurnEvent
	last     *Diagnosis
	lastErr  string

	sweeps, identified, ambiguous uint64
	declares, recovers            uint64
	applyErrors, sourceErrors     uint64

	mSweeps, mTests, mIdentified, mAmbiguous *obs.Counter
	mDeclared, mRecovered, mApplyErrors      *obs.Counter
	gDeclared                                *obs.Gauge
	hDecode                                  *obs.Histogram
}

// NewReconciler builds a Reconciler. Source and applier are required;
// wrap the applier in a shared Dedup when a monitor feeds the same
// engine.
func NewReconciler(source Source, applier Applier, opts ReconcilerOptions) (*Reconciler, error) {
	if source == nil || applier == nil {
		return nil, errors.New("diagnose: source and applier are required")
	}
	if opts.Topology == nil {
		return nil, errors.New("diagnose: Topology is required")
	}
	if opts.Bound <= 0 {
		opts.Bound = Diagnosability(opts.Topology)
	}
	if opts.Interval <= 0 {
		opts.Interval = time.Second
	}
	if opts.Now == nil {
		opts.Now = time.Now
	}
	r := &Reconciler{
		source:   source,
		applier:  applier,
		opts:     opts,
		declared: make(map[int]bool),
	}
	reg := opts.Registry
	r.mSweeps = reg.Counter(obs.MetricDiagnoseSweepsTotal)
	r.mTests = reg.Counter(obs.MetricDiagnoseTestsTotal)
	r.mIdentified = reg.Counter(obs.MetricDiagnoseIdentifiedTotal)
	r.mAmbiguous = reg.Counter(obs.MetricDiagnoseAmbiguousTotal)
	r.mDeclared = reg.Counter(obs.MetricDiagnoseDeclaredTotal)
	r.mRecovered = reg.Counter(obs.MetricDiagnoseRecoveredTotal)
	r.mApplyErrors = reg.Counter(obs.MetricDiagnoseApplyErrors)
	r.gDeclared = reg.Gauge(obs.MetricDiagnoseDeclaredNodes)
	r.hDecode = reg.LatencyHistogram(obs.MetricLatencyDecode)
	return r, nil
}

// TickResult summarizes one diagnosis sweep.
type TickResult struct {
	Verdict Verdict
	// Declared and Recovered count the transitions applied this sweep.
	Declared, Recovered int
	// Tests is the completed-test count of the sweep's syndrome.
	Tests int
}

// Tick runs one collect → decode → reconcile sweep. Apply failures
// leave the affected node undeclared so the transition retries next
// sweep; a source failure skips the sweep entirely.
func (r *Reconciler) Tick(ctx context.Context) (TickResult, error) {
	syn, err := r.source.Syndrome(ctx)
	if err != nil {
		r.mu.Lock()
		r.sourceErrors++
		r.lastErr = err.Error()
		r.mu.Unlock()
		return TickResult{}, fmt.Errorf("diagnose: syndrome collection: %w", err)
	}
	start := r.opts.Now()
	diag := Decode(syn, Options{Bound: r.opts.Bound})
	decodeUS := r.opts.Now().Sub(start).Microseconds()

	res := TickResult{Verdict: diag.Verdict, Tests: diag.Stats.Tests}
	r.mu.Lock()
	r.sweeps++
	r.last = diag
	r.lastErr = ""
	r.mSweeps.Inc()
	r.mTests.Add(int64(diag.Stats.Tests))
	r.hDecode.Observe(decodeUS)
	if diag.Verdict == VerdictAmbiguous {
		r.ambiguous++
		r.mAmbiguous.Inc()
		r.mu.Unlock()
		r.flight(diag, decodeUS)
		return res, nil
	}
	r.identified++
	r.mIdentified.Inc()

	// Reconcile: the decoded set is the desired declared view. Apply
	// first, journal only what landed — the applier's refusal (full
	// queue, draining engine) must leave the journal truthful.
	want := make(map[int]bool, len(diag.Faulty))
	for _, a := range diag.Faulty {
		want[int(a)] = true
	}
	for _, a := range diag.Faulty {
		node := int(a)
		if r.declared[node] {
			continue
		}
		if err := r.applier.Fault(ctx, node, true); err != nil {
			r.applyErrors++
			r.mApplyErrors.Inc()
			continue
		}
		r.declared[node] = true
		r.journal = append(r.journal, faults.ChurnEvent{Kind: faults.DeltaFailNode, A: a})
		r.declares++
		r.mDeclared.Inc()
		r.gDeclared.Add(1)
		res.Declared++
	}
	var stale []int
	for node, down := range r.declared {
		if down && !want[node] {
			stale = append(stale, node)
		}
	}
	sort.Ints(stale)
	for _, node := range stale {
		if err := r.applier.Fault(ctx, node, false); err != nil {
			r.applyErrors++
			r.mApplyErrors.Inc()
			continue
		}
		r.declared[node] = false
		r.journal = append(r.journal, faults.ChurnEvent{Kind: faults.DeltaRecoverNode, A: topo.NodeID(node)})
		r.recovers++
		r.mRecovered.Inc()
		r.gDeclared.Add(-1)
		res.Recovered++
	}
	r.mu.Unlock()
	r.flight(diag, decodeUS)
	return res, nil
}

// flight emits the per-sweep flight record: Items carries the decoded
// fault count, an ambiguous sweep resolves as a failure (which the
// recorder promotes as "diagnosis-ambiguous").
func (r *Reconciler) flight(diag *Diagnosis, decodeUS int64) {
	f := r.opts.Flight
	if f == nil {
		return
	}
	outcome := obs.OutcomeNone
	items := len(diag.Faulty)
	if diag.Verdict == VerdictAmbiguous {
		outcome = obs.OutcomeFailure
		items = len(diag.Candidates)
	}
	rec := obs.FlightRecord{
		Kind:      obs.ReqDiagnose,
		LatencyUS: decodeUS,
		Items:     items,
		Outcome:   outcome,
	}
	if reason := f.Record(&rec); reason != "" {
		f.Promote(&rec, reason, nil)
	}
}

// Run sweeps on Options.Interval until ctx is done. Production entry
// point; tests call Tick directly.
func (r *Reconciler) Run(ctx context.Context) {
	t := time.NewTicker(r.opts.Interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			_, _ = r.Tick(ctx)
		}
	}
}

// Journal returns a copy of the declaration journal (fail/recover
// events that landed through the applier, in order). When the applier
// is a shared Dedup, prefer Dedup.Journal — the merged view.
func (r *Reconciler) Journal() []faults.ChurnEvent {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]faults.ChurnEvent(nil), r.journal...)
}

// Status is the point-in-time snapshot behind the /diagnosis endpoint.
type Status struct {
	Nodes int `json:"nodes"`
	Bound int `json:"bound"`
	// Verdict of the latest sweep ("" before the first one).
	Verdict string `json:"verdict,omitempty"`
	// Faulty is the latest identified set; Candidates counts the
	// consistent sets of the latest ambiguous decode.
	Faulty     []int `json:"faulty,omitempty"`
	Candidates int   `json:"candidates,omitempty"`
	Exhaustive bool  `json:"exhaustive"`
	// Declared is the reconciler's currently-declared view, ascending.
	Declared []int `json:"declared"`

	Sweeps       uint64 `json:"sweeps"`
	Identified   uint64 `json:"identified"`
	Ambiguous    uint64 `json:"ambiguous"`
	Declarations uint64 `json:"declarations"`
	Recoveries   uint64 `json:"recoveries"`
	ApplyErrors  uint64 `json:"apply_errors"`
	SourceErrors uint64 `json:"source_errors"`
	JournalLen   int    `json:"journal_len"`
	LastError    string `json:"last_error,omitempty"`
}

// Status snapshots the reconciler.
func (r *Reconciler) Status() Status {
	r.mu.Lock()
	defer r.mu.Unlock()
	st := Status{
		Nodes:        r.opts.Topology.Nodes(),
		Bound:        r.opts.Bound,
		Sweeps:       r.sweeps,
		Identified:   r.identified,
		Ambiguous:    r.ambiguous,
		Declarations: r.declares,
		Recoveries:   r.recovers,
		ApplyErrors:  r.applyErrors,
		SourceErrors: r.sourceErrors,
		JournalLen:   len(r.journal),
		LastError:    r.lastErr,
		Exhaustive:   true,
	}
	if r.last != nil {
		st.Verdict = r.last.Verdict.String()
		st.Exhaustive = r.last.Exhaustive
		for _, a := range r.last.Faulty {
			st.Faulty = append(st.Faulty, int(a))
		}
		st.Candidates = len(r.last.Candidates)
	}
	for n, down := range r.declared {
		if down {
			st.Declared = append(st.Declared, n)
		}
	}
	sort.Ints(st.Declared)
	if st.Declared == nil {
		st.Declared = []int{}
	}
	return st
}

// ErrAmbiguous is returned by ReplaySchedule when a step's syndrome
// does not decode to a unique fault set — the schedule drove the cube
// past the diagnosability bound.
var ErrAmbiguous = errors.New("diagnose: syndrome is ambiguous")

// ReplayOptions configure ReplaySchedule.
type ReplayOptions struct {
	Seed      uint64
	Adversary Adversary
	// Bound overrides the decode budget (0 means Diagnosability).
	Bound int
}

// ReplaySchedule replays a ground-truth churn schedule through the
// diagnosis pipeline: after each event it collects a fresh syndrome
// from the evolving truth set, decodes it, and emits the declarations a
// reconciler would drive — link events pass through unchanged (PMC
// tests diagnose nodes; a faulty link merely removes its two tests).
// While every prefix of the schedule keeps the node-fault count within
// the bound, the decode is exact and the emitted schedule is
// event-for-event identical to the input — which is precisely what the
// chaos differential asserts before replaying routes over it. A step
// whose syndrome decodes Ambiguous (or to a wrong set, which only a
// beyond-bound schedule can produce) returns an error naming the step.
func ReplaySchedule(tp topo.Topology, events []faults.ChurnEvent, opts ReplayOptions) ([]faults.ChurnEvent, error) {
	truth := faults.NewSet(tp)
	declared := make(map[topo.NodeID]bool)
	out := make([]faults.ChurnEvent, 0, len(events))
	for i, ev := range events {
		if err := truth.Apply(ev); err != nil {
			return nil, fmt.Errorf("diagnose: replay step %d (%v): %w", i, ev.Kind, err)
		}
		isLink := ev.Kind == faults.DeltaFailLink || ev.Kind == faults.DeltaRecoverLink
		if isLink {
			out = append(out, ev)
		}
		syn := Collect(truth, CollectOptions{Seed: opts.Seed + uint64(i), Adversary: opts.Adversary})
		diag := Decode(syn, Options{Bound: opts.Bound})
		if diag.Verdict != VerdictIdentified {
			return nil, fmt.Errorf("diagnose: replay step %d: %w (%d candidates)", i, ErrAmbiguous, len(diag.Candidates))
		}
		want := make(map[topo.NodeID]bool, len(diag.Faulty))
		for _, a := range diag.Faulty {
			want[a] = true
			if !declared[a] {
				declared[a] = true
				out = append(out, faults.ChurnEvent{Kind: faults.DeltaFailNode, A: a})
			}
		}
		var recovered []topo.NodeID
		for a, down := range declared {
			if down && !want[a] {
				recovered = append(recovered, a)
			}
		}
		sort.Slice(recovered, func(x, y int) bool { return recovered[x] < recovered[y] })
		for _, a := range recovered {
			declared[a] = false
			out = append(out, faults.ChurnEvent{Kind: faults.DeltaRecoverNode, A: a})
		}
	}
	return out, nil
}
