package loadgen

import (
	"context"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/serve"
	"repro/internal/topo"
)

func newLocal(t *testing.T, opts serve.Options) LocalTarget {
	t.Helper()
	svc, err := serve.New(faults.NewSet(topo.MustCube(6)), opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc.Close)
	return LocalTarget{Svc: svc}
}

// TestRunClosedLoop: a short closed-loop run over all three op kinds
// completes, classifies everything OK, and produces a sane digest.
func TestRunClosedLoop(t *testing.T) {
	tgt := newLocal(t, serve.Options{})
	rep := Run(tgt, Config{
		Seed:     1,
		Workers:  4,
		Duration: 100 * time.Millisecond,
		Warmup:   20 * time.Millisecond,
		Mix:      Mix{Route: 8, Batch: 1, RouteAll: 1},
	})
	if rep.Mode != "closed" {
		t.Fatalf("mode %q, want closed", rep.Mode)
	}
	if rep.Ops == 0 || rep.Classes[ClassOK] != rep.Ops {
		t.Fatalf("ops=%d classes=%v, want all OK", rep.Ops, rep.Classes)
	}
	if rep.Latency.Count != rep.Classes[ClassOK] {
		t.Fatalf("latency count %d != ok count %d", rep.Latency.Count, rep.Classes[ClassOK])
	}
	if rep.Latency.P50Us <= 0 || rep.Latency.P999Us < rep.Latency.P50Us {
		t.Fatalf("bad quantiles: %+v", rep.Latency)
	}
	if rep.Latency.MaxUs <= 0 {
		t.Fatalf("max latency %d, want > 0", rep.Latency.MaxUs)
	}
	if len(rep.PerKind) == 0 {
		t.Fatal("no per-kind digests")
	}
	if rep.WarmupOps == 0 {
		t.Fatal("warmup window recorded no ops")
	}
}

// TestRunOpenLoopChurn: open-loop pacing under a churn storm advances
// the fault-set generation and still answers the offered load.
func TestRunOpenLoop(t *testing.T) {
	tgt := newLocal(t, serve.Options{QueueDepth: 64})
	gen0 := tgt.Svc.Generation()
	rep := Run(tgt, Config{
		Seed:       7,
		Workers:    2,
		Rate:       2000,
		Duration:   150 * time.Millisecond,
		ChurnEvery: 5 * time.Millisecond,
	})
	if rep.Mode != "open" {
		t.Fatalf("mode %q, want open", rep.Mode)
	}
	if rep.ChurnEvents == 0 {
		t.Fatal("churn storm injected nothing")
	}
	if rep.Classes[ClassOK] == 0 {
		t.Fatalf("no OK ops under churn: %v", rep.Classes)
	}
	tgt.Svc.Flush()
	if tgt.Svc.Generation() == gen0 {
		t.Fatal("generation never advanced despite churn events")
	}
	// Open loop should land near the offered rate, not the maximum
	// throughput (which for a trivial route would be far higher).
	if rep.OKPerSec > 3*2000 {
		t.Fatalf("open loop ran at %.0f ops/s against an offered 2000", rep.OKPerSec)
	}
}

// sleepTarget answers every route after sleeping d; nothing else is
// driven.
type sleepTarget struct{ d time.Duration }

func (s sleepTarget) Nodes() int { return 64 }
func (s sleepTarget) Route(ctx context.Context, src, dst int) error {
	time.Sleep(s.d)
	return nil
}
func (s sleepTarget) Batch(context.Context, [][2]int) error               { return nil }
func (s sleepTarget) RouteAll(context.Context, int) error                 { return nil }
func (s sleepTarget) Fault(context.Context, int, bool) error              { return nil }
func (s sleepTarget) ApplyEvent(context.Context, faults.ChurnEvent) error { return nil }

// TestRunOpenLoopLag checks the open-loop generator's report of its own
// lag. A target that takes 10 ms per request on a 2 ms schedule holds
// the one worker back, so nearly every request is issued more than one
// interval late; a target that answers at once on a 25 ms schedule
// leaves the worker asleep between requests, so none is, and the lag's
// p99 is a small part of the interval. A closed loop has no schedule
// and reports no lag.
func TestRunOpenLoopLag(t *testing.T) {
	slow := Run(sleepTarget{10 * time.Millisecond}, Config{Workers: 1, Rate: 500, Duration: 150 * time.Millisecond})
	if slow.Lag == nil || slow.Lag.Behind < slow.Ops/2 || slow.Lag.P99Us < 2000 {
		t.Fatalf("slow target: %d ops, lag %+v; want most requests more than 2ms late", slow.Ops, slow.Lag)
	}
	fast := Run(sleepTarget{}, Config{Workers: 1, Rate: 40, Duration: 300 * time.Millisecond})
	if fast.Lag == nil || fast.Lag.Behind != 0 || fast.Lag.P99Us > 12500 || fast.Ops == 0 {
		t.Fatalf("fast target: %d ops, lag %+v; want none late and p99 under half the 25ms interval", fast.Ops, fast.Lag)
	}
	if closed := Run(sleepTarget{}, Config{Workers: 1, Duration: 10 * time.Millisecond}); closed.Lag != nil {
		t.Fatalf("closed loop reports lag %+v", closed.Lag)
	}
}

// TestRunShedding: a tiny admission bucket turns most of the offered
// load into ClassOverload without contaminating the OK latency digest.
func TestRunShedding(t *testing.T) {
	tgt := newLocal(t, serve.Options{Rate: 50, Burst: 5})
	rep := Run(tgt, Config{
		Seed:     3,
		Workers:  4,
		Duration: 100 * time.Millisecond,
	})
	if rep.Classes[ClassOverload] == 0 {
		t.Fatalf("no shedding with Rate=50: %v", rep.Classes)
	}
	if rep.Latency.Count != rep.Classes[ClassOK] {
		t.Fatalf("latency digest holds %d samples, want only the %d OK",
			rep.Latency.Count, rep.Classes[ClassOK])
	}
}

// TestClassify covers the error taxonomy mapping.
func TestClassify(t *testing.T) {
	cases := map[string]error{
		ClassOK:       nil,
		ClassOverload: serve.ErrOverload,
		ClassDraining: serve.ErrDraining,
		ClassBacklog:  serve.ErrBacklog,
		ClassDeadline: context.DeadlineExceeded,
		ClassError:    context.Canceled,
	}
	for want, err := range cases {
		if got := Classify(err); got != want {
			t.Errorf("Classify(%v) = %q, want %q", err, got, want)
		}
	}
}

// TestHTTPTargetMapping: the HTTP target maps each slserve status back
// to the canonical error so classification matches LocalTarget.
func TestHTTPTargetMapping(t *testing.T) {
	codes := map[string]int{
		"/route":    http.StatusOK,
		"/batch":    http.StatusTooManyRequests,
		"/routeall": http.StatusGatewayTimeout,
		"/fault":    http.StatusAccepted,
	}
	var lastURL string
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		lastURL = r.URL.String()
		w.WriteHeader(codes[r.URL.Path])
	}))
	defer srv.Close()

	tgt := HTTPTarget{Base: srv.URL, N: 16}
	ctx := context.Background()
	if err := tgt.Route(ctx, 0, 15); err != nil {
		t.Fatalf("200 -> %v, want nil", err)
	}
	if err := tgt.Batch(ctx, [][2]int{{0, 1}}); Classify(err) != ClassOverload {
		t.Fatalf("429 -> %v, want overload", err)
	}
	if err := tgt.RouteAll(ctx, 0); Classify(err) != ClassDeadline {
		t.Fatalf("504 -> %v, want deadline", err)
	}
	if err := tgt.Fault(ctx, 3, true); err != nil {
		t.Fatalf("202 -> %v, want nil", err)
	}
	if lastURL != "/fault?a=3&op=fail-node" {
		t.Fatalf("fault URL %q", lastURL)
	}
}

// TestScheduleReplayLocal: a seeded scenario schedule replays in full
// through the local target's TryApply path, every event lands, and the
// ends-clean invariant leaves the served fault set empty again.
func TestScheduleReplayLocal(t *testing.T) {
	tgt := newLocal(t, serve.Options{QueueDepth: 256})
	sched, err := faults.ScenarioSchedule(tgt.Svc.Topology(), faults.ScenarioSubcube, 42, faults.ScenarioOptions{})
	if err != nil {
		t.Fatal(err)
	}
	gen0 := tgt.Svc.Generation()
	rep := Run(tgt, Config{
		Seed:       9,
		Workers:    2,
		Duration:   200 * time.Millisecond,
		ChurnEvery: 2 * time.Millisecond,
		Schedule:   sched,
		Scenario:   string(faults.ScenarioSubcube),
	})
	if rep.ChurnEvents != int64(len(sched)) {
		t.Fatalf("replayed %d/%d events (errors %d)", rep.ChurnEvents, len(sched), rep.ChurnErrors)
	}
	if rep.ChurnErrors != 0 {
		t.Fatalf("%d schedule events failed to apply", rep.ChurnErrors)
	}
	tgt.Svc.Flush()
	if tgt.Svc.Generation() == gen0 {
		t.Fatal("generation never advanced despite schedule replay")
	}
	if rep.Config.Scenario != "subcube" {
		t.Fatalf("report scenario %q", rep.Config.Scenario)
	}
	// Scenario schedules end clean: a fresh replay against ground truth
	// confirms the run left no residual faults behind.
	set := faults.NewSet(tgt.Svc.Topology())
	for _, ev := range sched {
		if err := set.Apply(ev); err != nil {
			t.Fatal(err)
		}
	}
	if set.NodeFaults() != 0 || set.LinkFaults() != 0 {
		t.Fatalf("schedule not ends-clean: %d node / %d link faults", set.NodeFaults(), set.LinkFaults())
	}
}

// TestScheduleReplayHTTP: the same event vocabulary reaches a remote
// slserve as /fault queries — node events carry op+a, link events add
// b — in exact schedule order.
func TestScheduleReplayHTTP(t *testing.T) {
	var mu sync.Mutex
	var faultURLs []string
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/fault" {
			mu.Lock()
			faultURLs = append(faultURLs, r.URL.String())
			mu.Unlock()
			w.WriteHeader(http.StatusAccepted)
			return
		}
		w.WriteHeader(http.StatusOK)
	}))
	defer srv.Close()

	sched := []faults.ChurnEvent{
		{Kind: faults.DeltaFailNode, A: 3},
		{Kind: faults.DeltaFailLink, A: 0, B: 8},
		{Kind: faults.DeltaRecoverLink, A: 0, B: 8},
		{Kind: faults.DeltaRecoverNode, A: 3},
	}
	tgt := HTTPTarget{Base: srv.URL, N: 16}
	rep := Run(tgt, Config{
		Workers:    1,
		Duration:   120 * time.Millisecond,
		ChurnEvery: 2 * time.Millisecond,
		Schedule:   sched,
	})
	if rep.ChurnEvents != int64(len(sched)) || rep.ChurnErrors != 0 {
		t.Fatalf("replayed %d/%d events, %d errors", rep.ChurnEvents, len(sched), rep.ChurnErrors)
	}
	want := []string{
		"/fault?a=3&op=fail-node",
		"/fault?a=0&b=8&op=fail-link",
		"/fault?a=0&b=8&op=recover-link",
		"/fault?a=3&op=recover-node",
	}
	mu.Lock()
	defer mu.Unlock()
	if len(faultURLs) != len(want) {
		t.Fatalf("fault URLs %v, want %v", faultURLs, want)
	}
	for i, u := range want {
		if faultURLs[i] != u {
			t.Fatalf("fault URL %d = %q, want %q", i, faultURLs[i], u)
		}
	}
}

// TestDeterministicStream: two runs with the same seed offer the same
// number of warm+measured requests of each kind when the duration is
// long enough to drain the schedule (open loop, fast target, fixed op
// count makes this exact only per-worker; we assert the weaker —
// but still seed-sensitive — property that op synthesis is stable).
func TestDeterministicStream(t *testing.T) {
	rng1 := newKindSeq(42, 100)
	rng2 := newKindSeq(42, 100)
	rng3 := newKindSeq(43, 100)
	if rng1 != rng2 {
		t.Fatal("same seed produced different op sequences")
	}
	if rng1 == rng3 {
		t.Fatal("different seeds produced identical op sequences")
	}
}

func newKindSeq(seed uint64, n int) string {
	rng := newWorkerRNG(seed, 0)
	m := Mix{Route: 3, Batch: 2, RouteAll: 1}
	out := make([]byte, n)
	for i := range out {
		out[i] = pickKind(rng, m)[0]
	}
	return string(out)
}
