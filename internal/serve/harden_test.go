package serve

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/topo"
)

// TestServeDeadline: a context that is already done (or expires
// mid-request) must surface its own error promptly, on every
// context-aware reader, without touching the routing core.
func TestServeDeadline(t *testing.T) {
	s := newService(t, topo.MustCube(5), Options{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	if _, err := s.RouteCtx(ctx, 0, 31); !errors.Is(err, context.Canceled) {
		t.Fatalf("RouteCtx on canceled ctx: %v, want context.Canceled", err)
	}
	if _, err := s.BatchUnicastCtx(ctx, []Request{{0, 31}}); !errors.Is(err, context.Canceled) {
		t.Fatalf("BatchUnicastCtx on canceled ctx: %v, want context.Canceled", err)
	}
	if _, err := s.RouteAllCtx(ctx, 0); !errors.Is(err, context.Canceled) {
		t.Fatalf("RouteAllCtx on canceled ctx: %v, want context.Canceled", err)
	}

	dctx, dcancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer dcancel()
	start := time.Now()
	if _, err := s.RouteCtx(dctx, 0, 31); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("RouteCtx past deadline: %v, want context.DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("deadline-exceeded request took %v, want prompt return", elapsed)
	}

	// A live context routes normally and the answer matches the
	// snapshot's own walk.
	got, err := s.RouteCtx(context.Background(), 0, 31)
	if err != nil {
		t.Fatal(err)
	}
	want := s.Current().Route(0, 31)
	if len(got.Path) != len(want.Path) || got.Outcome != want.Outcome {
		t.Fatalf("ctx route %v/%d path, snapshot %v/%d path", got.Outcome, len(got.Path), want.Outcome, len(want.Path))
	}
}

// TestServeBatchCancellation: canceling mid-batch returns the context
// error instead of a truncated result set.
func TestServeBatchCancellation(t *testing.T) {
	s := newService(t, topo.MustCube(8), Options{})
	reqs := make([]Request, 4096)
	for i := range reqs {
		reqs[i] = Request{Src: topo.NodeID(i % 256), Dst: topo.NodeID((i * 7) % 256)}
	}
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	wg.Add(1)
	var batchErr error
	go func() {
		defer wg.Done()
		_, batchErr = s.BatchUnicastCtx(ctx, reqs)
	}()
	cancel()
	wg.Wait()
	if batchErr != nil && !errors.Is(batchErr, context.Canceled) {
		t.Fatalf("mid-batch cancel: %v, want nil (finished first) or context.Canceled", batchErr)
	}
}

// TestServeOverload: with a tiny token bucket the readers shed with
// ErrOverload — a signal distinct from both the writer-side ErrBacklog
// and the drain-time ErrDraining.
func TestServeOverload(t *testing.T) {
	reg := obs.NewRegistry()
	s := newService(t, topo.MustCube(5), Options{Rate: 1, Burst: 2, Registry: reg})
	ctx := context.Background()

	// Drain the burst; the bucket refills at 1 token/s so the loop
	// cannot win tokens back fast enough to pass spuriously.
	shed := false
	for i := 0; i < 50; i++ {
		if _, err := s.RouteCtx(ctx, 0, 31); err != nil {
			if !errors.Is(err, ErrOverload) {
				t.Fatalf("shed error: %v, want ErrOverload", err)
			}
			if errors.Is(err, ErrBacklog) || errors.Is(err, ErrDraining) {
				t.Fatalf("ErrOverload must be distinct from ErrBacklog/ErrDraining")
			}
			shed = true
			break
		}
	}
	if !shed {
		t.Fatal("burst of 2 admitted 50 requests; admission control is not engaged")
	}
	// A batch bigger than the burst can never be admitted.
	if _, err := s.BatchUnicastCtx(ctx, make([]Request, 100)); !errors.Is(err, ErrOverload) {
		t.Fatalf("oversized batch: %v, want ErrOverload", err)
	}
	if reg.Counter(obs.MetricServeOverloadTotal).Value() == 0 {
		t.Fatal("serve_overload_total not incremented")
	}
}

// TestTokenBucketRefill pins the bucket arithmetic: capacity bounds a
// burst, time earns tokens back, rate <= 0 disables.
func TestTokenBucketRefill(t *testing.T) {
	b := newTokenBucket(1000, 10) // 1ms per token, depth 10
	admitted := 0
	for i := 0; i < 100; i++ {
		if b.take(1) {
			admitted++
		}
	}
	if admitted < 10 || admitted > 20 {
		t.Fatalf("burst-10 bucket admitted %d of 100 instant requests", admitted)
	}
	time.Sleep(30 * time.Millisecond)
	if !b.take(1) {
		t.Fatal("bucket did not refill after sleeping")
	}
	if !b.take(5) {
		t.Fatal("multi-token take refused despite refill")
	}
	var unlimited *tokenBucket
	if !unlimited.take(1 << 20) {
		t.Fatal("nil bucket must admit everything")
	}
	if newTokenBucket(0, 5) != nil || newTokenBucket(-1, 5) != nil {
		t.Fatal("rate <= 0 must disable the bucket")
	}
}

// TestServeDrainOrdering is the drain-ordering guarantee under -race:
// every request accepted before Shutdown completes against a
// consistent snapshot (Consistent() holds on the snapshot it was
// served from), requests after the drain begins get ErrDraining, and
// churn accepted before Shutdown is published before the applier
// stops.
func TestServeDrainOrdering(t *testing.T) {
	s := newService(t, topo.MustCube(6), Options{})
	ctx := context.Background()

	const readers = 8
	var accepted, drainRefused atomic.Int64
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				src := topo.NodeID((seed*31 + i) % 64)
				dst := topo.NodeID((seed*17 + i*5) % 64)
				// Pin the snapshot the request will be served from and
				// assert its consistency after the route completes — a
				// torn publication or a post-drain mutation would trip
				// this under the race detector.
				sn := s.Current()
				rt, err := s.RouteCtx(ctx, src, dst)
				if err != nil {
					if !errors.Is(err, ErrDraining) {
						t.Errorf("reader error: %v, want ErrDraining only", err)
					}
					drainRefused.Add(1)
					return
				}
				if rt == nil {
					t.Error("accepted request returned nil route")
					return
				}
				if !sn.Consistent() {
					t.Error("request served against an inconsistent snapshot")
					return
				}
				accepted.Add(1)
			}
		}(r)
	}

	// Churn accepted before the drain must reach the final snapshot.
	if err := s.FailNode(13); err != nil {
		t.Fatal(err)
	}
	time.Sleep(5 * time.Millisecond) // let the readers overlap the churn
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	close(stop)
	wg.Wait()

	if got := s.Inflight(); got != 0 {
		t.Fatalf("inflight after Shutdown = %d, want 0", got)
	}
	if accepted.Load() == 0 {
		t.Fatal("no requests were accepted before the drain")
	}
	final := s.Current()
	if !final.Consistent() {
		t.Fatal("final snapshot is not consistent")
	}
	if !final.Assignment().Faults().NodeFaulty(13) {
		t.Fatal("churn accepted before Shutdown missing from the final snapshot")
	}
	// After Shutdown: readers refuse, and the final snapshot still
	// answers through Current.
	if _, err := s.RouteCtx(ctx, 0, 63); !errors.Is(err, ErrDraining) {
		t.Fatalf("RouteCtx after Shutdown: %v, want ErrDraining", err)
	}
	if r := s.Current().Route(0, 63); r == nil {
		t.Fatal("the final snapshot stopped answering after Shutdown")
	}
	// Shutdown is idempotent.
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("second Shutdown: %v", err)
	}
}

// TestServeShutdownTimeout: a drain that cannot finish before its
// context expires hard-closes and reports the context error.
func TestServeShutdownTimeout(t *testing.T) {
	s := newService(t, topo.MustCube(4), Options{})
	// Hold one in-flight request open by hand (white-box: acquire is
	// what RouteCtx does first).
	if err := s.acquire(); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := s.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Shutdown with stuck in-flight request: %v, want DeadlineExceeded", err)
	}
	// The straggler retires; the service is fully closed.
	s.release()
	if err := s.FailNode(1); !errors.Is(err, ErrClosed) {
		t.Fatalf("mutator after timed-out Shutdown: %v, want ErrClosed", err)
	}
}

// TestServeDrainMetrics: the drain flips serve_draining and the
// in-flight gauge returns to zero.
func TestServeDrainMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	s := newService(t, topo.MustCube(4), Options{Registry: reg})
	if _, err := s.RouteCtx(context.Background(), 0, 15); err != nil {
		t.Fatal(err)
	}
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if v := reg.Gauge(obs.MetricServeDraining).Value(); v != 1 {
		t.Fatalf("serve_draining = %d, want 1", v)
	}
	if v := reg.Gauge(obs.MetricServeInflight).Value(); v != 0 {
		t.Fatalf("serve_inflight = %d, want 0", v)
	}
	if reg.Histogram(obs.MetricLatencyRoute).Snapshot().Count == 0 {
		t.Fatal("latency_route_us recorded nothing")
	}
}
