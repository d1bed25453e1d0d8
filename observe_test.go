package safecube

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
)

// kinds flattens a trace into its event-kind sequence for assertions.
func kinds(tr *RouteTrace) []EventKind {
	out := make([]EventKind, len(tr.Events))
	for i, e := range tr.Events {
		out[i] = e.Kind
	}
	return out
}

func counter(t *testing.T, r *Registry, name string) int64 {
	t.Helper()
	v, ok := r.Snapshot().Counters[name]
	if !ok {
		t.Fatalf("counter %q not in snapshot", name)
	}
	return v
}

// TestTracedRerouteEvents replays the paper's Section 2.2 demand-driven
// scenario under tracing: nodes on the chosen path die mid-flight, the
// message blocks, levels are recomputed, and the unicast is re-admitted
// from the current node. The trace must show the whole story in order:
// optimal admission, a hop, the blockage, the C3 re-admission, and a
// suboptimal delivery.
func TestTracedRerouteEvents(t *testing.T) {
	c := MustNew(5)
	reg := NewRegistry()
	reg.KeepTraces(4)
	c.Instrument(reg)

	sess, tr, cond, out := c.StartUnicastTraced(c.MustParse("00000"), c.MustParse("00111"))
	if cond != CondC1 || out != Optimal {
		t.Fatalf("admission %v/%v, want C1/optimal", cond, out)
	}
	if _, err := sess.Step(); err != nil {
		t.Fatal(err)
	}
	// Both remaining preferred neighbors die; the next Step must block.
	if err := c.FailNamed("00011", "00101"); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Step(); err != ErrBlocked {
		t.Fatalf("want ErrBlocked, got %v", err)
	}
	// State-change-driven recompute + re-admission from 00001: C1/C2 are
	// dead there, so the session detours via a spare neighbor (C3).
	if cond, out := sess.Reroute(); cond != CondC3 || out != Suboptimal {
		t.Fatalf("reroute %v/%v, want C3/suboptimal", cond, out)
	}
	if arrived, err := sess.Run(); !arrived || err != nil {
		t.Fatalf("run: %v %v", arrived, err)
	}

	// The event sequence tells the Section 2.2 story in order.
	got := kinds(tr)
	want := []EventKind{EvAdmit, EvHop, EvBlocked, EvReroute}
	for i, k := range want {
		if i >= len(got) || got[i] != k {
			t.Fatalf("event[%d] = %v, want %v (full: %v)", i, got[i], k, got)
		}
	}
	if got[len(got)-1] != EvDone {
		t.Fatalf("last event %v, want done (full: %v)", got[len(got)-1], got)
	}
	if tr.Events[0].Cond != "C1" || tr.Events[0].Outcome != "optimal" {
		t.Errorf("admit event = %+v", tr.Events[0])
	}
	if re := tr.Events[3]; re.Cond != "C3" || re.Outcome != "suboptimal" {
		t.Errorf("reroute event = %+v", re)
	}
	// The first post-reroute hop is the C3 spare detour.
	if sp := tr.Events[4]; sp.Kind != EvHop || !sp.Spare {
		t.Errorf("post-reroute hop should be spare, got %+v", sp)
	}
	if tr.Outcome != "suboptimal" || tr.Reroutes != 1 {
		t.Errorf("trace outcome %q reroutes %d", tr.Outcome, tr.Reroutes)
	}
	if tr.PathLen != sess.Hops() || tr.Stretch != tr.PathLen-tr.Hamming {
		t.Errorf("trace accounting: len %d stretch %d vs hops %d H %d",
			tr.PathLen, tr.Stretch, sess.Hops(), tr.Hamming)
	}

	// Counters saw the same story.
	for name, want := range map[string]int64{
		MetricBlockedTotal:       1,
		MetricReroutesTotal:      1,
		MetricRerouteAbortsTotal: 0,
		MetricOutcomeSuboptimal:  1,
		MetricSpareHopsTotal:     1,
	} {
		if got := counter(t, reg, name); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	// The finished trace landed in the ring buffer.
	snap := reg.Snapshot()
	if len(snap.Traces) != 1 || snap.Traces[0].Outcome != "suboptimal" {
		t.Errorf("ring buffer: %+v", snap.Traces)
	}
}

// TestTracedRerouteAbort walls the message in mid-flight: the re-admission
// must fail (the paper's abort branch), the trace must end with an abort
// event, and the abort counter must tick.
func TestTracedRerouteAbort(t *testing.T) {
	c := MustNew(4)
	reg := NewRegistry()
	c.Instrument(reg)

	sess, tr, _, out := c.StartUnicastTraced(c.MustParse("0000"), c.MustParse("1111"))
	if out != Optimal {
		t.Fatalf("admission %v", out)
	}
	if _, err := sess.Step(); err != nil {
		t.Fatal(err)
	}
	// Isolate the node currently holding the message.
	at := sess.At()
	for d := 0; d < c.Dim(); d++ {
		if err := c.FailNode(at ^ NodeID(1<<d)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := sess.Step(); err != ErrBlocked {
		t.Fatalf("want ErrBlocked, got %v", err)
	}
	if _, out := sess.Reroute(); out != Failure {
		t.Fatalf("reroute from isolated node: %v, want failure", out)
	}
	if sess.Done() {
		t.Error("aborted session must not be done")
	}

	got := kinds(tr)
	want := []EventKind{EvAdmit, EvHop, EvBlocked, EvAbort}
	if len(got) != len(want) {
		t.Fatalf("events %v, want kinds %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("event[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	if ab := tr.Events[3]; ab.Node != int(at) || ab.Outcome != "failure" {
		t.Errorf("abort event = %+v, want node %d outcome failure", ab, at)
	}
	if counter(t, reg, MetricRerouteAbortsTotal) != 1 {
		t.Error("abort counter did not tick")
	}
	if counter(t, reg, MetricReroutesTotal) != 0 {
		t.Error("a failed re-admission must not count as a reroute")
	}
}

// TestRegistryConcurrentUnicasts hammers one shared registry from many
// goroutines routing on a warm cube, plus a concurrent distributed batch
// on the simnet engine — the counters must neither race (run with -race)
// nor lose increments.
func TestRegistryConcurrentUnicasts(t *testing.T) {
	c := MustNew(6)
	if err := c.InjectRandomFaults(11, 6); err != nil {
		t.Fatal(err)
	}
	reg := NewRegistry()
	c.Instrument(reg)
	c.ComputeLevels() // warm the level cache so routing is read-only

	var pairs []TrafficPair
	for a := 0; len(pairs) < 32; a++ {
		s, d := NodeID(a%c.Nodes()), NodeID((a*37+13)%c.Nodes())
		if s == d || c.NodeFaulty(s) || c.NodeFaulty(d) {
			continue
		}
		pairs = append(pairs, TrafficPair{Src: s, Dst: d})
	}

	const workers = 8
	var wg sync.WaitGroup
	hops := make([]int64, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for _, p := range pairs {
				r := c.Unicast(p.Src, p.Dst)
				if r.Err != nil {
					t.Errorf("unicast %v: %v", p, r.Err)
				}
				hops[w] += int64(r.Hops())
			}
		}(w)
	}
	// Meanwhile the goroutine-per-node engine routes the same pairs,
	// feeding the simnet_* counters of the same registry.
	d := c.Distributed()
	d.RunGS()
	st, err := d.UnicastBatch(pairs)
	d.Close()
	if err != nil {
		t.Fatal(err)
	}
	wg.Wait()

	total := int64(workers * len(pairs))
	if got := counter(t, reg, MetricUnicastsTotal); got != total {
		t.Errorf("route_unicasts_total = %d, want %d", got, total)
	}
	var wantHops int64
	for _, h := range hops {
		wantHops += h
	}
	if got := counter(t, reg, MetricHopsTotal); got != wantHops {
		t.Errorf("route_hops_total = %d, want %d", got, wantHops)
	}
	sum := counter(t, reg, MetricOutcomeOptimal) +
		counter(t, reg, MetricOutcomeSuboptimal) +
		counter(t, reg, MetricOutcomeFailure)
	if sum != total {
		t.Errorf("outcome counters sum to %d, want %d", sum, total)
	}
	if got := counter(t, reg, "simnet_delivered_total"); got != int64(st.Delivered) {
		t.Errorf("simnet_delivered_total = %d, want %d", got, st.Delivered)
	}
	// Every admission hit the warm cache; only the explicit warm-up (and
	// the engine handoff) missed.
	if got := counter(t, reg, MetricLevelsCacheHits); got < total {
		t.Errorf("cache hits = %d, want >= %d", got, total)
	}
	if got := counter(t, reg, MetricLevelsCacheMisses); got != 1 {
		t.Errorf("cache misses = %d, want 1", got)
	}
}

// TestCacheInvalidationByGeneration covers the fault-generation cache:
// repeated ComputeLevels hit, any fault mutation misses exactly once, and
// a Distributed KillNode (shared fault set) invalidates the owner too.
func TestCacheInvalidationByGeneration(t *testing.T) {
	c := MustNew(5)
	reg := NewRegistry()
	c.Instrument(reg)

	c.ComputeLevels()
	c.ComputeLevels()
	c.ComputeLevels()
	if h, m := counter(t, reg, MetricLevelsCacheHits), counter(t, reg, MetricLevelsCacheMisses); h != 2 || m != 1 {
		t.Fatalf("hits %d misses %d, want 2/1", h, m)
	}
	if err := c.FailNamed("00001"); err != nil {
		t.Fatal(err)
	}
	lv := c.ComputeLevels()
	if got := lv.Level(c.MustParse("00001")); got != 0 {
		t.Fatalf("stale levels after fault: S(00001) = %d", got)
	}
	if m := counter(t, reg, MetricLevelsCacheMisses); m != 2 {
		t.Fatalf("misses = %d, want 2", m)
	}
	// RecoverNode and FailLink advance the generation too.
	if err := c.RecoverNode(c.MustParse("00001")); err != nil {
		t.Fatal(err)
	}
	c.ComputeLevels()
	if err := c.FailLink(c.MustParse("00000"), c.MustParse("00001")); err != nil {
		t.Fatal(err)
	}
	c.ComputeLevels()
	if m := counter(t, reg, MetricLevelsCacheMisses); m != 4 {
		t.Fatalf("misses = %d, want 4", m)
	}

	// A kill through the Distributed facade shares the fault set, so the
	// Cube's cache must invalidate without any manual staleness flag.
	d := c.Distributed()
	defer d.Close()
	d.RunGS()
	if err := d.KillNode(c.MustParse("11111")); err != nil {
		t.Fatal(err)
	}
	lv = c.ComputeLevels()
	if got := lv.Level(c.MustParse("11111")); got != 0 {
		t.Errorf("cache survived a Distributed kill: S(11111) = %d", got)
	}
}

// TestTraceFormatTranscript pins the human-readable transcript shape the
// README documents.
func TestTraceFormatTranscript(t *testing.T) {
	c := fig1Cube(t)
	_, tr := c.UnicastTraced(c.MustParse("1110"), c.MustParse("0001"))
	text := tr.Format(func(a int) string { return c.Format(NodeID(a)) })
	for _, want := range []string{
		"trace 1110 -> 0001 (H = 4)",
		"admit   at 1110: H=4 S=4 -> C1 (optimal)",
		"hop     1110 -> 1111 dim 0 (preferred, neighbor level",
		"done    optimal at 0001",
		"outcome optimal via C1: 4 hops vs H = 4 (stretch 0, reroutes 0)",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("transcript missing %q:\n%s", want, text)
		}
	}
	// Tracing works on an uninstrumented cube too (throwaway registry).
	if tr == nil || len(tr.Events) == 0 {
		t.Fatal("no trace recorded")
	}
}

// TestTracedFailureAdmission: a cross-partition request fails at the
// source; the trace must carry the failure admission and a done event,
// and UnicastTraced must agree with Unicast.
func TestTracedFailureAdmission(t *testing.T) {
	c := MustNew(4)
	if err := c.FailNamed("0110", "1010", "1100", "1111"); err != nil {
		t.Fatal(err)
	}
	r, tr := c.UnicastTraced(c.MustParse("0111"), c.MustParse("1110"))
	if r.Outcome != Failure {
		t.Fatalf("outcome %v", r.Outcome)
	}
	got := kinds(tr)
	if len(got) != 2 || got[0] != EvAdmit || got[1] != EvDone {
		t.Fatalf("failure trace events %v, want [admit done]", got)
	}
	if tr.Outcome != "failure" || tr.PathLen != 0 {
		t.Errorf("trace = %+v", tr)
	}
}

// sessionSteps drives, on cubes instrumented with reg, the two Section
// 2.2 sessions of TestTracedRerouteEvents and TestTracedRerouteAbort, a
// session refused at admission across a partition, one from a source
// outside the cube, and one from a node to itself, starting each traced
// when traced is set. After every Start, Step, Reroute and Run it
// records the nonzero route_* counters and the number of traces in
// reg's ring.
func sessionSteps(t *testing.T, reg *Registry, traced bool) (counts []string, ring []int) {
	t.Helper()
	mark := func(call string) {
		snap := reg.Snapshot()
		var names []string
		for name, v := range snap.Counters {
			if strings.HasPrefix(name, "route_") && v != 0 {
				names = append(names, fmt.Sprintf("%s=%d", strings.TrimSuffix(strings.TrimPrefix(name, "route_"), "_total"), v))
			}
		}
		sort.Strings(names)
		counts = append(counts, call+" "+strings.Join(names, " "))
		ring = append(ring, len(snap.Traces))
	}
	start := func(c *Cube, s, d string) *RouteSession {
		var sess *RouteSession
		src, dst := NodeID(c.Nodes()+1), c.MustParse(d)
		if s != "" {
			src = c.MustParse(s)
		}
		if traced {
			sess, _, _, _ = c.StartUnicastTraced(src, dst)
		} else {
			sess, _, _ = c.StartUnicast(src, dst)
		}
		mark("start")
		return sess
	}

	c := MustNew(5).Instrument(reg)
	sess := start(c, "00000", "00111")
	sess.Step()
	mark("step")
	if err := c.FailNamed("00011", "00101"); err != nil {
		t.Fatal(err)
	}
	sess.Step()
	mark("step")
	sess.Reroute()
	mark("reroute")
	sess.Run()
	mark("run")

	c = MustNew(4).Instrument(reg)
	sess = start(c, "0000", "1111")
	sess.Step()
	mark("step")
	at := sess.At()
	for d := 0; d < c.Dim(); d++ {
		if err := c.FailNode(at ^ NodeID(1<<d)); err != nil {
			t.Fatal(err)
		}
	}
	sess.Step()
	mark("step")
	sess.Reroute()
	mark("reroute")

	c = MustNew(4).Instrument(reg)
	if err := c.FailNamed("0110", "1010", "1100", "1111"); err != nil {
		t.Fatal(err)
	}
	if start(c, "0111", "1110") != nil || start(c, "", "0000") != nil {
		t.Fatal("a refused session started")
	}
	if !start(c, "0101", "0101").Done() {
		t.Fatal("a session to its own source is not done")
	}
	return counts, ring
}

// TestSessionRouteMetrics pins, at every call boundary, what the
// sessions of sessionSteps count, untraced and traced, and the route_*
// lines of the exposition they leave. A traced session counts what an
// untraced one does, and its trace enters the ring when the session
// fails at admission, starts at its destination or arrives; a session
// that aborts stays out.
func TestSessionRouteMetrics(t *testing.T) {
	wantCounts := []string{
		"start admit_c1=1 unicasts=1",
		"step admit_c1=1 hops=1 unicasts=1",
		"step admit_c1=1 blocked=1 hops=1 unicasts=1",
		"reroute admit_c1=1 blocked=1 hops=1 reroutes=1 unicasts=1",
		"run admit_c1=1 blocked=1 hops=5 outcome_suboptimal=1 reroutes=1 spare_hops=1 unicasts=1",
		"start admit_c1=2 blocked=1 hops=5 outcome_suboptimal=1 reroutes=1 spare_hops=1 unicasts=2",
		"step admit_c1=2 blocked=1 hops=6 outcome_suboptimal=1 reroutes=1 spare_hops=1 unicasts=2",
		"step admit_c1=2 blocked=2 hops=6 outcome_suboptimal=1 reroutes=1 spare_hops=1 unicasts=2",
		"reroute admit_c1=2 blocked=2 hops=6 outcome_suboptimal=1 reroute_aborts=1 reroutes=1 spare_hops=1 unicasts=2",
		"start admit_c1=2 admit_none=1 blocked=2 hops=6 outcome_failure=1 outcome_suboptimal=1 reroute_aborts=1 reroutes=1 spare_hops=1 unicasts=3",
		"start admit_c1=2 admit_none=2 blocked=2 hops=6 outcome_failure=2 outcome_suboptimal=1 reroute_aborts=1 reroutes=1 spare_hops=1 unicasts=4",
		"start admit_c1=3 admit_none=2 blocked=2 hops=6 outcome_failure=2 outcome_optimal=1 outcome_suboptimal=1 reroute_aborts=1 reroutes=1 spare_hops=1 unicasts=5",
	}
	wantRing := map[bool][]int{
		false: make([]int, len(wantCounts)),
		true:  {0, 0, 0, 0, 1, 1, 1, 1, 1, 2, 3, 4},
	}
	const wantLines = `# TYPE safecube_route_admit_c1_total counter
safecube_route_admit_c1_total 3
# TYPE safecube_route_admit_c2_total counter
safecube_route_admit_c2_total 0
# TYPE safecube_route_admit_c3_total counter
safecube_route_admit_c3_total 0
# TYPE safecube_route_admit_none_total counter
safecube_route_admit_none_total 2
# TYPE safecube_route_blocked_total counter
safecube_route_blocked_total 2
# TYPE safecube_route_forward_errors_total counter
safecube_route_forward_errors_total 0
# TYPE safecube_route_hops_total counter
safecube_route_hops_total 6
# TYPE safecube_route_outcome_failure_total counter
safecube_route_outcome_failure_total 2
# TYPE safecube_route_outcome_optimal_total counter
safecube_route_outcome_optimal_total 1
# TYPE safecube_route_outcome_suboptimal_total counter
safecube_route_outcome_suboptimal_total 1
# TYPE safecube_route_reroute_aborts_total counter
safecube_route_reroute_aborts_total 1
# TYPE safecube_route_reroutes_total counter
safecube_route_reroutes_total 1
# TYPE safecube_route_spare_hops_total counter
safecube_route_spare_hops_total 1
# TYPE safecube_route_unicasts_total counter
safecube_route_unicasts_total 5
# TYPE safecube_route_hamming histogram
safecube_route_hamming_bucket{le="0"} 1
safecube_route_hamming_bucket{le="1"} 1
safecube_route_hamming_bucket{le="2"} 3
safecube_route_hamming_bucket{le="4"} 5
safecube_route_hamming_bucket{le="8"} 5
safecube_route_hamming_bucket{le="16"} 5
safecube_route_hamming_bucket{le="32"} 5
safecube_route_hamming_bucket{le="64"} 5
safecube_route_hamming_bucket{le="+Inf"} 5
safecube_route_hamming_sum 11
safecube_route_hamming_count 5
safecube_route_hamming_quantile{q="0.5"} 1.75
safecube_route_hamming_quantile{q="0.9"} 3.5
safecube_route_hamming_quantile{q="0.99"} 3.95
safecube_route_hamming_quantile{q="0.999"} 3.995
# TYPE safecube_route_path_hops histogram
safecube_route_path_hops_bucket{le="0"} 1
safecube_route_path_hops_bucket{le="1"} 1
safecube_route_path_hops_bucket{le="2"} 1
safecube_route_path_hops_bucket{le="4"} 1
safecube_route_path_hops_bucket{le="8"} 2
safecube_route_path_hops_bucket{le="16"} 2
safecube_route_path_hops_bucket{le="32"} 2
safecube_route_path_hops_bucket{le="64"} 2
safecube_route_path_hops_bucket{le="+Inf"} 2
safecube_route_path_hops_sum 5
safecube_route_path_hops_count 2
safecube_route_path_hops_quantile{q="0.5"} 0
safecube_route_path_hops_quantile{q="0.9"} 7.2
safecube_route_path_hops_quantile{q="0.99"} 7.92
safecube_route_path_hops_quantile{q="0.999"} 7.992
# TYPE safecube_route_stretch histogram
safecube_route_stretch_bucket{le="0"} 1
safecube_route_stretch_bucket{le="1"} 1
safecube_route_stretch_bucket{le="2"} 2
safecube_route_stretch_bucket{le="3"} 2
safecube_route_stretch_bucket{le="4"} 2
safecube_route_stretch_bucket{le="8"} 2
safecube_route_stretch_bucket{le="+Inf"} 2
safecube_route_stretch_sum 2
safecube_route_stretch_count 2
safecube_route_stretch_quantile{q="0.5"} 0
safecube_route_stretch_quantile{q="0.9"} 1.8
safecube_route_stretch_quantile{q="0.99"} 1.98
safecube_route_stretch_quantile{q="0.999"} 1.998`
	for _, traced := range []bool{false, true} {
		reg := NewRegistry()
		reg.KeepTraces(8)
		counts, ring := sessionSteps(t, reg, traced)
		if !reflect.DeepEqual(counts, wantCounts) {
			t.Errorf("traced %v: counters at each call\n%s\nwant\n%s", traced, strings.Join(counts, "\n"), strings.Join(wantCounts, "\n"))
		}
		if !reflect.DeepEqual(ring, wantRing[traced]) {
			t.Errorf("traced %v: ring lengths %v, want %v", traced, ring, wantRing[traced])
		}
		var b strings.Builder
		if err := reg.WritePrometheus(&b); err != nil {
			t.Fatal(err)
		}
		var lines []string
		for _, line := range strings.Split(b.String(), "\n") {
			if strings.Contains(line, "route_") {
				lines = append(lines, line)
			}
		}
		if got := strings.Join(lines, "\n"); got != wantLines {
			t.Errorf("traced %v: route lines\n%s\nwant\n%s", traced, got, wantLines)
		}
	}
}
