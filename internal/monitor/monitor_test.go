package monitor

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/stats"
	"repro/internal/topo"
)

// fakeClock drives Options.Now so no test sleeps.
type fakeClock struct{ now time.Time }

func newFakeClock() *fakeClock { return &fakeClock{now: time.Unix(1_000_000, 0)} }

func (c *fakeClock) Now() time.Time          { return c.now }
func (c *fakeClock) advance(d time.Duration) { c.now = c.now.Add(d) }
func (c *fakeClock) tick(m *Monitor) TickResult {
	c.advance(time.Second)
	return m.Tick(context.Background())
}

// setApplier applies declarations to a faults.Set — the monitor's view
// of the world, kept separate from the ground truth it probes.
type setApplier struct {
	set  *faults.Set
	fail error // when non-nil, every apply refuses
}

func (a *setApplier) Fault(_ context.Context, node int, down bool) error {
	if a.fail != nil {
		return a.fail
	}
	if down {
		return a.set.FailNode(topo.NodeID(node))
	}
	return a.set.RecoverNode(topo.NodeID(node))
}

// harness bundles ground truth, declared view, clock and monitor.
type harness struct {
	truth    *faults.Set
	declared *faults.Set
	applier  *setApplier
	clock    *fakeClock
	mon      *Monitor
}

func newHarness(t *testing.T, dim int, opts Options) *harness {
	t.Helper()
	c := topo.MustCube(dim)
	h := &harness{
		truth:    faults.NewSet(c),
		declared: faults.NewSet(c),
		clock:    newFakeClock(),
	}
	h.applier = &setApplier{set: h.declared}
	opts.Nodes = c.Nodes()
	opts.Now = h.clock.Now
	mon, err := New(SetProber{Set: h.truth}, h.applier, opts)
	if err != nil {
		t.Fatal(err)
	}
	h.mon = mon
	return h
}

func TestMonitorKProbeDeclaration(t *testing.T) {
	h := newHarness(t, 4, Options{FailK: 3, RecoverK: 2})
	// Healthy sweep: nothing declared.
	res := h.clock.tick(h.mon)
	if res.Probes != 16 || res.Misses != 0 || res.Declared != 0 {
		t.Fatalf("healthy sweep: %+v", res)
	}
	victim := topo.NodeID(5)
	if err := h.truth.FailNode(victim); err != nil {
		t.Fatal(err)
	}
	// Two missed probes: suspect, not declared — one flaky probe (or
	// two) must not drive the apply path.
	for i := 1; i <= 2; i++ {
		res = h.clock.tick(h.mon)
		if res.Misses != 1 || res.Declared != 0 {
			t.Fatalf("miss %d: %+v", i, res)
		}
		if st := h.mon.NodeState(int(victim)); st != StateSuspect {
			t.Fatalf("miss %d: state %v, want suspect", i, st)
		}
		if h.declared.NodeFaulty(victim) {
			t.Fatalf("declared after only %d misses", i)
		}
	}
	// Third miss: declared through the applier.
	res = h.clock.tick(h.mon)
	if res.Declared != 1 {
		t.Fatalf("third miss: %+v", res)
	}
	if st := h.mon.NodeState(int(victim)); st != StateDeclared {
		t.Fatalf("state %v, want declared", st)
	}
	if !h.declared.NodeFaulty(victim) {
		t.Fatal("applier did not receive the declaration")
	}
	// Further misses while declared do not re-declare.
	res = h.clock.tick(h.mon)
	if res.Declared != 0 {
		t.Fatalf("re-declared an already-declared node: %+v", res)
	}
	if got := h.mon.Status().Declarations; got != 1 {
		t.Fatalf("declarations = %d, want 1", got)
	}
}

func TestMonitorRecoveryHysteresis(t *testing.T) {
	h := newHarness(t, 4, Options{FailK: 1, RecoverK: 3})
	victim := topo.NodeID(9)
	if err := h.truth.FailNode(victim); err != nil {
		t.Fatal(err)
	}
	if res := h.clock.tick(h.mon); res.Declared != 1 {
		t.Fatalf("FailK=1 should declare on the first miss: %+v", res)
	}
	if err := h.truth.RecoverNode(victim); err != nil {
		t.Fatal(err)
	}
	// Two healthy probes: hysteresis holds the declaration.
	for i := 1; i <= 2; i++ {
		if res := h.clock.tick(h.mon); res.Undeclared != 0 {
			t.Fatalf("hit %d: un-declared before the RecoverK streak", i)
		}
		if !h.declared.NodeFaulty(victim) {
			t.Fatalf("hit %d: applier saw a premature recovery", i)
		}
	}
	// A relapse resets the streak entirely.
	if err := h.truth.FailNode(victim); err != nil {
		t.Fatal(err)
	}
	h.clock.tick(h.mon)
	if err := h.truth.RecoverNode(victim); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 2; i++ {
		if res := h.clock.tick(h.mon); res.Undeclared != 0 {
			t.Fatalf("post-relapse hit %d: streak did not reset", i)
		}
	}
	if res := h.clock.tick(h.mon); res.Undeclared != 1 {
		t.Fatalf("third consecutive hit should un-declare: %+v", res)
	}
	if h.declared.NodeFaulty(victim) {
		t.Fatal("applier still shows the node faulty after un-declaration")
	}
	if st := h.mon.NodeState(int(victim)); st != StateHealthy {
		t.Fatalf("state %v, want healthy", st)
	}
}

func TestMonitorFlapSuppression(t *testing.T) {
	h := newHarness(t, 3, Options{
		FailK: 1, RecoverK: 1,
		FlapMax:    2,
		FlapWindow: 30 * time.Second,
		FlapHold:   5 * time.Second,
	})
	victim := topo.NodeID(3)
	flap := func() {
		if err := h.truth.FailNode(victim); err != nil {
			t.Fatal(err)
		}
		h.clock.tick(h.mon)
		if err := h.truth.RecoverNode(victim); err != nil {
			t.Fatal(err)
		}
		h.clock.tick(h.mon)
	}
	// First flap: declare + immediate un-declare (no brake yet).
	flap()
	if h.declared.NodeFaulty(victim) {
		t.Fatal("first flap should have fully recovered")
	}
	// Second flap within the window: the brake engages, so the healthy
	// probe no longer un-declares.
	if err := h.truth.FailNode(victim); err != nil {
		t.Fatal(err)
	}
	h.clock.tick(h.mon)
	if st := h.mon.NodeState(int(victim)); st != StateSuppressed {
		t.Fatalf("state %v, want suppressed after %d declares in window", st, 2)
	}
	if err := h.truth.RecoverNode(victim); err != nil {
		t.Fatal(err)
	}
	// Healthy, but held: FlapHold is 5s, ticks advance 1s each, and the
	// hold is measured from the tick of the first healthy probe — so
	// that tick (elapsed 0s) through elapsed 4s stay held, and the
	// elapsed-5s tick releases.
	for i := 0; i < 5; i++ {
		if res := h.clock.tick(h.mon); res.Undeclared != 0 {
			t.Fatalf("tick %d: suppressed node released before FlapHold", i)
		}
		if !h.declared.NodeFaulty(victim) {
			t.Fatalf("tick %d: applier saw an early recovery", i)
		}
	}
	// Sixth healthy tick: past the hold, releases.
	if res := h.clock.tick(h.mon); res.Undeclared != 1 {
		t.Fatal("suppressed node not released after FlapHold of stable health")
	}
	st := h.mon.Status()
	if st.Suppressions != 1 {
		t.Fatalf("suppressions = %d, want 1", st.Suppressions)
	}
	if h.declared.NodeFaulty(victim) {
		t.Fatal("applier still shows the node faulty")
	}
	// The journal charged the applier 2 round trips for 3 flaps.
	if n := len(h.mon.Journal()); n != 4 {
		t.Fatalf("journal has %d events, want 4 (two full declare/recover cycles)", n)
	}
}

func TestMonitorApplierFailureRetries(t *testing.T) {
	h := newHarness(t, 3, Options{FailK: 2, RecoverK: 1})
	victim := topo.NodeID(1)
	if err := h.truth.FailNode(victim); err != nil {
		t.Fatal(err)
	}
	h.applier.fail = errors.New("queue full")
	h.clock.tick(h.mon)
	if res := h.clock.tick(h.mon); res.Declared != 0 {
		t.Fatal("declaration counted despite applier refusal")
	}
	if st := h.mon.NodeState(int(victim)); st == StateDeclared {
		t.Fatal("node marked declared while the applier refused")
	}
	if h.mon.Status().ApplyErrors == 0 {
		t.Fatal("apply error not counted")
	}
	if len(h.mon.Journal()) != 0 {
		t.Fatal("journal recorded a transition that never landed")
	}
	// Applier heals: next sweep retries and lands.
	h.applier.fail = nil
	if res := h.clock.tick(h.mon); res.Declared != 1 {
		t.Fatal("declaration not retried after the applier healed")
	}
	if !h.declared.NodeFaulty(victim) {
		t.Fatal("applier did not receive the retried declaration")
	}
}

// TestMonitorCancelledSweepDeclaresNothing cancels a sweep during node
// 3's probe. The sweep stops there: the cancelled probe and the nodes
// after it are no evidence of a fault, so even at FailK 1 nothing is
// declared, as a drain that cancels the monitor mid-sweep needs.
func TestMonitorCancelledSweepDeclaresNothing(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	probe := ProbeFunc(func(pctx context.Context, node int) error {
		if node == 3 {
			cancel()
		}
		return pctx.Err()
	})
	declared := faults.NewSet(topo.MustCube(3))
	mon, err := New(probe, &setApplier{set: declared}, Options{Nodes: 8, FailK: 1})
	if err != nil {
		t.Fatal(err)
	}
	res := mon.Tick(ctx)
	if res.Probes != 3 || res.Misses != 0 || res.Declared != 0 {
		t.Fatalf("sweep cancelled at node 3: %+v, want 3 probes and no misses", res)
	}
	if declared.NodeFaults() != 0 || len(mon.Journal()) != 0 {
		t.Fatalf("cancelled sweep declared %v", declared.FaultyNodes())
	}
}

// TestMonitorHungProbeIsMiss points the monitor at an upstream that
// accepts every /probe and never answers. Each probe gets one Interval,
// so the sweep returns with both nodes missed and, at FailK 1,
// declared.
func TestMonitorHungProbeIsMiss(t *testing.T) {
	release := make(chan struct{})
	up := httptest.NewServer(http.HandlerFunc(func(_ http.ResponseWriter, r *http.Request) {
		select {
		case <-r.Context().Done():
		case <-release:
		}
	}))
	defer up.Close()
	defer close(release)
	declared := faults.NewSet(topo.MustCube(1))
	prober := HTTPProber{URL: func(node int) string { return fmt.Sprintf("%s/probe?node=%d", up.URL, node) }}
	mon, err := New(prober, &setApplier{set: declared}, Options{Nodes: 2, FailK: 1, Interval: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan TickResult, 1)
	go func() { done <- mon.Tick(context.Background()) }()
	select {
	case res := <-done:
		if res.Misses != 2 || res.Declared != 2 || declared.NodeFaults() != 2 {
			t.Fatalf("sweep of a hung upstream: %+v, %d nodes declared; want two misses and two declarations", res, declared.NodeFaults())
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Tick still blocked on a hung upstream after 2s")
	}
}

func TestMonitorMetricsAndStatus(t *testing.T) {
	reg := obs.NewRegistry()
	c := topo.MustCube(3)
	truth := faults.NewSet(c)
	declared := faults.NewSet(c)
	clock := newFakeClock()
	mon, err := New(SetProber{Set: truth}, &setApplier{set: declared}, Options{
		Nodes: c.Nodes(), FailK: 1, RecoverK: 1,
		Now: clock.Now, Registry: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := truth.FailNode(6); err != nil {
		t.Fatal(err)
	}
	clock.tick(mon)
	if v := reg.Counter(obs.MetricMonitorProbesTotal).Value(); v != 8 {
		t.Errorf("probes metric = %d, want 8", v)
	}
	if v := reg.Counter(obs.MetricMonitorDeclaredTotal).Value(); v != 1 {
		t.Errorf("declared metric = %d, want 1", v)
	}
	if v := reg.Gauge(obs.MetricMonitorDeclaredNodes).Value(); v != 1 {
		t.Errorf("declared gauge = %d, want 1", v)
	}
	st := mon.Status()
	if len(st.Declared) != 1 || st.Declared[0] != 6 {
		t.Errorf("status declared = %v, want [6]", st.Declared)
	}
	if err := truth.RecoverNode(6); err != nil {
		t.Fatal(err)
	}
	clock.tick(mon)
	if v := reg.Gauge(obs.MetricMonitorDeclaredNodes).Value(); v != 0 {
		t.Errorf("declared gauge after recovery = %d, want 0", v)
	}
	if v := reg.Counter(obs.MetricMonitorUndeclaredTotal).Value(); v != 1 {
		t.Errorf("undeclared metric = %d, want 1", v)
	}
}

func TestMonitorRejectsBadOptions(t *testing.T) {
	p := SetProber{Set: faults.NewSet(topo.MustCube(2))}
	a := &setApplier{set: faults.NewSet(topo.MustCube(2))}
	if _, err := New(nil, a, Options{Nodes: 4}); err == nil {
		t.Error("nil prober accepted")
	}
	if _, err := New(p, nil, Options{Nodes: 4}); err == nil {
		t.Error("nil applier accepted")
	}
	if _, err := New(p, a, Options{}); err == nil {
		t.Error("zero Nodes accepted")
	}
	for s := StateHealthy; s <= StateSuppressed+1; s++ {
		if s.String() == "" {
			t.Errorf("state %d has empty name", s)
		}
	}
}

// TestMonitorJournalIdempotentReplay is the property test: after the
// monitor reaches quiescence on any ground-truth injection history, its
// declaration journal replayed into an empty set reproduces the ground
// truth exactly — and replaying the journal a second time over the same
// set is a no-op (fail/recover events are idempotent), so the journal
// is safe to re-apply on recovery of the applier itself.
func TestMonitorJournalIdempotentReplay(t *testing.T) {
	c := topo.MustCube(5)
	for seed := uint64(1); seed <= 8; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := stats.NewRNG(seed)
			truth := faults.NewSet(c)
			declared := faults.NewSet(c)
			clock := newFakeClock()
			failK := 1 + int(seed%3)
			recoverK := 1 + int(seed%2)
			mon, err := New(SetProber{Set: truth}, &setApplier{set: declared}, Options{
				Nodes: c.Nodes(), FailK: failK, RecoverK: recoverK,
				// Effectively disable the flap brake: this property is
				// about declaration bookkeeping, and suppression holds
				// real state back by design.
				FlapMax: 1 << 20,
				Now:     clock.Now,
			})
			if err != nil {
				t.Fatal(err)
			}
			settle := failK
			if recoverK > settle {
				settle = recoverK
			}
			for step := 0; step < 60; step++ {
				a := topo.NodeID(rng.Intn(c.Nodes()))
				if truth.NodeFaulty(a) {
					if err := truth.RecoverNode(a); err != nil {
						t.Fatal(err)
					}
				} else if err := truth.FailNode(a); err != nil {
					t.Fatal(err)
				}
				// Let the monitor converge on this truth before the next
				// mutation (k sweeps cover both streak thresholds).
				for i := 0; i < settle; i++ {
					clock.tick(mon)
				}
			}
			// Quiesce: one extra settle round, then compare.
			for i := 0; i < settle; i++ {
				clock.tick(mon)
			}
			journal := mon.Journal()
			replay := faults.NewSet(c)
			for _, ev := range journal {
				if err := replay.Apply(ev); err != nil {
					t.Fatalf("journal replay: %v", err)
				}
			}
			assertSameFaults(t, "replay vs truth", replay, truth)
			assertSameFaults(t, "replay vs declared view", replay, declared)
			// Idempotence: a second full replay changes nothing.
			before := fmt.Sprint(replay.FaultyNodes())
			for _, ev := range journal {
				if err := replay.Apply(ev); err != nil {
					t.Fatalf("second replay: %v", err)
				}
			}
			if after := fmt.Sprint(replay.FaultyNodes()); after != before {
				t.Fatalf("second replay changed state: %s -> %s", before, after)
			}
		})
	}
}

func assertSameFaults(t *testing.T, label string, got, want *faults.Set) {
	t.Helper()
	g, w := fmt.Sprint(got.FaultyNodes()), fmt.Sprint(want.FaultyNodes())
	if g != w {
		t.Fatalf("%s: faulty nodes %s, want %s", label, g, w)
	}
}
