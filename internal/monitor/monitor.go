package monitor

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/topo"
)

// Prober answers one health probe: nil means the node responded,
// non-nil means the probe missed (dead, unreachable, or errored).
type Prober interface {
	Probe(ctx context.Context, node int) error
}

// ProbeFunc adapts a function to the Prober interface.
type ProbeFunc func(ctx context.Context, node int) error

// Probe implements Prober.
func (f ProbeFunc) Probe(ctx context.Context, node int) error { return f(ctx, node) }

// Applier receives fault declarations. It is structurally identical to
// the loadgen targets' Fault method, so a loadgen.LocalTarget (the
// serving engine's apply path) or loadgen.HTTPTarget (/fault) plugs in
// unchanged.
type Applier interface {
	Fault(ctx context.Context, node int, down bool) error
}

// ApplyFunc adapts a function to the Applier interface.
type ApplyFunc func(ctx context.Context, node int, down bool) error

// Fault implements Applier.
func (f ApplyFunc) Fault(ctx context.Context, node int, down bool) error {
	return f(ctx, node, down)
}

// State is a node's position in the monitor state machine.
type State uint8

// The four observable states. Suspect and Recovering are Healthy and
// Declared with a partial streak; Suppressed is Declared with the flap
// brake engaged.
const (
	StateHealthy State = iota
	StateSuspect
	StateDeclared
	StateSuppressed
)

// String names the state for status surfaces.
func (s State) String() string {
	switch s {
	case StateHealthy:
		return "healthy"
	case StateSuspect:
		return "suspect"
	case StateDeclared:
		return "declared"
	case StateSuppressed:
		return "suppressed"
	}
	return fmt.Sprintf("state(%d)", uint8(s))
}

// Options configure a Monitor. The zero value of every field except
// Nodes picks a sane default.
type Options struct {
	// Nodes is the number of nodes to sweep (probed as 0..Nodes-1).
	Nodes int
	// FailK declares a node faulty after this many consecutive missed
	// probes (0 means 3). One missed probe is noise; k in a row is an
	// outage.
	FailK int
	// RecoverK un-declares after this many consecutive successful
	// probes (0 means 2) — the recovery hysteresis that keeps a
	// single lucky probe from resurrecting a dying node.
	RecoverK int
	// Interval is the Run sweep cadence (0 means 1s), and the longest a
	// single probe may take before it counts as a miss. Tests drive Tick
	// directly on a fake clock.
	Interval time.Duration
	// FlapWindow and FlapMax engage the flap brake: a node declared
	// FlapMax times within FlapWindow is suppressed (0 mean 20*Interval
	// and 3). A suppressed node stays declared until it has been
	// stably healthy for FlapHold on top of the RecoverK streak
	// (0 means FlapWindow), so a flapping node costs the repair applier
	// two events per window instead of two per flap.
	FlapWindow time.Duration
	FlapMax    int
	FlapHold   time.Duration
	// Now injects the clock (nil means time.Now). Tests substitute a
	// fake so no test sleeps.
	Now func() time.Time
	// Registry receives the monitor_* metrics (nil disables them).
	Registry *obs.Registry
}

// nodeState is the per-node state machine storage.
type nodeState struct {
	declared   bool
	suppressed bool
	// misses / hits are the current consecutive streaks; a miss resets
	// hits and vice versa.
	misses int
	hits   int
	// declares holds recent declaration times, pruned to FlapWindow.
	declares []time.Time
	// healthySince marks the start of the current hit streak while
	// declared; the FlapHold check measures against it.
	healthySince time.Time
}

// Monitor sweeps nodes with a Prober and drives fault declarations
// through an Applier. All methods are safe for concurrent use.
type Monitor struct {
	prober  Prober
	applier Applier
	opts    Options

	mu      sync.Mutex
	nodes   []nodeState
	journal []faults.ChurnEvent

	probes, misses, declarations, undeclarations uint64
	suppressions, applyErrors                    uint64

	mProbes, mMisses, mDeclared, mUndeclared *obs.Counter
	mSuppressed, mApplyErrors                *obs.Counter
	gDeclared                                *obs.Gauge
}

// New builds a Monitor over opts.Nodes nodes. The prober and applier
// are required; the monitor starts with every node assumed healthy and
// does nothing until Tick or Run.
func New(prober Prober, applier Applier, opts Options) (*Monitor, error) {
	if prober == nil || applier == nil {
		return nil, fmt.Errorf("monitor: prober and applier are required")
	}
	if opts.Nodes <= 0 {
		return nil, fmt.Errorf("monitor: Nodes must be positive, got %d", opts.Nodes)
	}
	if opts.FailK <= 0 {
		opts.FailK = 3
	}
	if opts.RecoverK <= 0 {
		opts.RecoverK = 2
	}
	if opts.Interval <= 0 {
		opts.Interval = time.Second
	}
	if opts.FlapWindow <= 0 {
		opts.FlapWindow = 20 * opts.Interval
	}
	if opts.FlapMax <= 0 {
		opts.FlapMax = 3
	}
	if opts.FlapHold <= 0 {
		opts.FlapHold = opts.FlapWindow
	}
	if opts.Now == nil {
		opts.Now = time.Now
	}
	m := &Monitor{
		prober:  prober,
		applier: applier,
		opts:    opts,
		nodes:   make([]nodeState, opts.Nodes),
	}
	reg := opts.Registry
	m.mProbes = reg.Counter(obs.MetricMonitorProbesTotal)
	m.mMisses = reg.Counter(obs.MetricMonitorMissesTotal)
	m.mDeclared = reg.Counter(obs.MetricMonitorDeclaredTotal)
	m.mUndeclared = reg.Counter(obs.MetricMonitorUndeclaredTotal)
	m.mSuppressed = reg.Counter(obs.MetricMonitorFlapSuppressed)
	m.mApplyErrors = reg.Counter(obs.MetricMonitorApplyErrors)
	m.gDeclared = reg.Gauge(obs.MetricMonitorDeclaredNodes)
	return m, nil
}

// TickResult summarizes one probe sweep.
type TickResult struct {
	Probes     int
	Misses     int
	Declared   int // declarations applied this sweep
	Undeclared int // un-declarations applied this sweep
}

// Tick probes every node once and advances the state machines. It is
// the entire control loop of one sweep; Run just calls it on a ticker.
// Each probe gets at most Options.Interval, so a probe slower than one
// sweep is a miss and a hung node cannot stall the monitor. Once ctx
// is done the sweep stops: the probe that saw it and the nodes after
// it are not counted, since a cancelled probe says nothing about its
// node. Apply failures (a full queue, a dead upstream) leave the
// node's state unchanged so the transition retries on the next sweep.
func (m *Monitor) Tick(ctx context.Context) TickResult {
	now := m.opts.Now()
	var res TickResult
	for node := 0; node < m.opts.Nodes; node++ {
		pctx, cancel := context.WithTimeout(ctx, m.opts.Interval)
		err := m.prober.Probe(pctx, node)
		cancel()
		if ctx.Err() != nil {
			break
		}
		m.mu.Lock()
		m.probes++
		m.mProbes.Inc()
		res.Probes++
		if err != nil {
			m.misses++
			m.mMisses.Inc()
			res.Misses++
			if m.missOne(ctx, node, now) {
				res.Declared++
			}
		} else if m.hitOne(ctx, node, now) {
			res.Undeclared++
		}
		m.mu.Unlock()
	}
	return res
}

// missOne handles one missed probe under the lock; reports whether the
// node was declared this tick.
func (m *Monitor) missOne(ctx context.Context, node int, now time.Time) bool {
	ns := &m.nodes[node]
	ns.hits = 0
	ns.healthySince = time.Time{}
	if ns.declared {
		return false
	}
	ns.misses++
	if ns.misses < m.opts.FailK {
		return false
	}
	// Declare through the apply path first: if the applier refuses, the
	// node stays (logically) undeclared and the streak retries next
	// sweep — the journal must only record transitions that landed.
	if err := m.applier.Fault(ctx, node, true); err != nil {
		m.applyErrors++
		m.mApplyErrors.Inc()
		return false
	}
	ns.declared = true
	ns.misses = 0
	m.declarations++
	m.mDeclared.Inc()
	m.gDeclared.Add(1)
	m.journal = append(m.journal, faults.ChurnEvent{Kind: faults.DeltaFailNode, A: topo.NodeID(node)})
	// Flap accounting: prune the declare history to the window, record
	// this declaration, and engage the brake when the node has now been
	// declared FlapMax times within the window.
	keep := ns.declares[:0]
	for _, t := range ns.declares {
		if now.Sub(t) < m.opts.FlapWindow {
			keep = append(keep, t)
		}
	}
	ns.declares = append(keep, now)
	if !ns.suppressed && len(ns.declares) >= m.opts.FlapMax {
		ns.suppressed = true
		m.suppressions++
		m.mSuppressed.Inc()
	}
	return true
}

// hitOne handles one successful probe under the lock; reports whether
// the node was un-declared this tick.
func (m *Monitor) hitOne(ctx context.Context, node int, now time.Time) bool {
	ns := &m.nodes[node]
	ns.misses = 0
	if !ns.declared {
		return false
	}
	if ns.hits == 0 {
		ns.healthySince = now
	}
	ns.hits++
	if ns.hits < m.opts.RecoverK {
		return false
	}
	// The flap brake: a suppressed node needs FlapHold of continuous
	// health beyond the hysteresis streak before it may rejoin.
	if ns.suppressed && now.Sub(ns.healthySince) < m.opts.FlapHold {
		return false
	}
	if err := m.applier.Fault(ctx, node, false); err != nil {
		m.applyErrors++
		m.mApplyErrors.Inc()
		return false
	}
	ns.declared = false
	ns.suppressed = false
	ns.hits = 0
	m.undeclarations++
	m.mUndeclared.Inc()
	m.gDeclared.Add(-1)
	m.journal = append(m.journal, faults.ChurnEvent{Kind: faults.DeltaRecoverNode, A: topo.NodeID(node)})
	return true
}

// Run sweeps on Options.Interval until ctx is done. Production entry
// point; tests call Tick directly.
func (m *Monitor) Run(ctx context.Context) {
	t := time.NewTicker(m.opts.Interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			m.Tick(ctx)
		}
	}
}

// Journal returns a copy of the declaration journal: the fail/recover
// events the monitor successfully drove through the applier, in order.
// Replaying it into an empty faults.Set reproduces exactly the fault
// view the monitor declared — the idempotent-replay property the tests
// pin.
func (m *Monitor) Journal() []faults.ChurnEvent {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]faults.ChurnEvent(nil), m.journal...)
}

// NodeState reports node's current state.
func (m *Monitor) NodeState(node int) State {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.stateOf(node)
}

// stateOf classifies one node under the lock.
func (m *Monitor) stateOf(node int) State {
	ns := &m.nodes[node]
	switch {
	case ns.declared && ns.suppressed:
		return StateSuppressed
	case ns.declared:
		return StateDeclared
	case ns.misses > 0:
		return StateSuspect
	default:
		return StateHealthy
	}
}

// Status is a point-in-time snapshot for the /monitor surface.
type Status struct {
	Nodes      int   `json:"nodes"`
	Declared   []int `json:"declared"`   // currently declared nodes, ascending
	Suppressed []int `json:"suppressed"` // subset of Declared with the flap brake on
	Suspect    []int `json:"suspect,omitempty"`

	Probes         uint64 `json:"probes"`
	Misses         uint64 `json:"misses"`
	Declarations   uint64 `json:"declarations"`
	Undeclarations uint64 `json:"undeclarations"`
	Suppressions   uint64 `json:"flap_suppressions"`
	ApplyErrors    uint64 `json:"apply_errors"`
	JournalLen     int    `json:"journal_len"`
}

// Status snapshots the monitor.
func (m *Monitor) Status() Status {
	m.mu.Lock()
	defer m.mu.Unlock()
	st := Status{
		Nodes:          m.opts.Nodes,
		Probes:         m.probes,
		Misses:         m.misses,
		Declarations:   m.declarations,
		Undeclarations: m.undeclarations,
		Suppressions:   m.suppressions,
		ApplyErrors:    m.applyErrors,
		JournalLen:     len(m.journal),
	}
	for node := range m.nodes {
		switch m.stateOf(node) {
		case StateDeclared:
			st.Declared = append(st.Declared, node)
		case StateSuppressed:
			st.Declared = append(st.Declared, node)
			st.Suppressed = append(st.Suppressed, node)
		case StateSuspect:
			st.Suspect = append(st.Suspect, node)
		}
	}
	sort.Ints(st.Declared)
	return st
}
