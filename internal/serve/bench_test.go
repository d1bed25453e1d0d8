package serve

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/stats"
	"repro/internal/topo"
	"repro/internal/wire"
)

// Throughput benchmarks of the lock-free read path: 1/4/16 concurrent
// readers, with and without a background churn storm feeding the apply
// queue. BENCH_4.json records, as history, these workloads against a
// mutex-guarded facade; here only the engine itself is tracked, so
// bench-gate can watch it without the baseline's noise.

// benchService builds a Q10 service with a representative fault load.
func benchService(b *testing.B, opts Options) *Service {
	b.Helper()
	tp := topo.MustCube(10)
	set := faults.NewSet(tp)
	if err := faults.InjectUniform(set, stats.NewRNG(42), 12); err != nil {
		b.Fatal(err)
	}
	s, err := New(set, opts)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(s.Close)
	return s
}

// churnStorm hammers the apply queue from one goroutine until stopped,
// cycling a feasible fail/recover schedule. TryApply keeps the storm
// from blocking on backpressure (rejected events are simply retried on
// the next lap, like a real churn feed would).
func churnStorm(s *Service, events []faults.ChurnEvent) (stop func()) {
	var quit atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; !quit.Load(); i = (i + 1) % len(events) {
			_ = s.TryApply(events[i])
			// Yield between events: on a single-CPU box an unyielding
			// spin loop starves the readers we are measuring, which
			// would benchmark the Go scheduler rather than the engine.
			runtime.Gosched()
		}
	}()
	return func() { quit.Store(true); wg.Wait() }
}

func benchReaders(b *testing.B, readers int, churn bool) {
	s := benchService(b, Options{QueueDepth: 32})
	var events []faults.ChurnEvent
	if churn {
		events = faults.ChurnSchedule(s.Topology(), 9, 512, faults.ChurnOptions{Links: true})
		stop := churnStorm(s, events)
		defer stop()
	}
	nodes := s.Topology().Nodes()
	var seq atomic.Uint64
	b.ResetTimer()
	b.SetParallelism(readers) // goroutines = readers × GOMAXPROCS
	b.RunParallel(func(pb *testing.PB) {
		rng := stats.NewRNG(seq.Add(1) * 7919)
		for pb.Next() {
			src := topo.NodeID(rng.Intn(nodes))
			dst := topo.NodeID(rng.Intn(nodes))
			r := s.Current().Route(src, dst)
			if r == nil {
				b.Fatal("nil route")
			}
		}
	})
}

func BenchmarkServeRoute(b *testing.B) {
	for _, readers := range []int{1, 4, 16} {
		for _, churn := range []bool{false, true} {
			name := fmt.Sprintf("readers=%d/churn=%v", readers, churn)
			b.Run(name, func(b *testing.B) { benchReaders(b, readers, churn) })
		}
	}
}

// BenchmarkServeRouteCtx measures the hardened read path — inflight
// accounting, phase check, admission bucket, context check — so the
// production-serving overhead over the raw snapshot read stays visible
// to bench-gate. The bare cell is the default path (flight recorder
// on); noflight is the same path with the recorder disabled, so the
// bare−noflight delta is the recorder's hot-path cost (the ≤5% budget
// BENCH_6.json documents); the full cell adds a deadline context and
// an (unsaturated) bucket.
func BenchmarkServeRouteCtx(b *testing.B) {
	run := func(b *testing.B, opts Options, withDeadline bool) {
		s := benchService(b, opts)
		nodes := s.Topology().Nodes()
		ctx := context.Background()
		if withDeadline {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, time.Hour)
			defer cancel()
		}
		rng := stats.NewRNG(17)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			src := topo.NodeID(rng.Intn(nodes))
			dst := topo.NodeID(rng.Intn(nodes))
			if _, err := s.RouteCtx(ctx, src, dst); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("bare", func(b *testing.B) { run(b, Options{}, false) })
	b.Run("noflight", func(b *testing.B) { run(b, Options{NoFlight: true}, false) })
	b.Run("deadline+admission", func(b *testing.B) {
		run(b, Options{Rate: 1e12, Burst: 1 << 20}, true)
	})
}

// BenchmarkServeBatch measures the batched path: one admission, one
// snapshot load and one flight record amortized over a 64-request
// batch, routed in order on the caller's goroutine.
func BenchmarkServeBatch(b *testing.B) {
	s := benchService(b, Options{})
	nodes := s.Topology().Nodes()
	rng := stats.NewRNG(3)
	reqs := make([]Request, 64)
	for i := range reqs {
		reqs[i] = Request{
			Src: topo.NodeID(rng.Intn(nodes)),
			Dst: topo.NodeID(rng.Intn(nodes)),
		}
	}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.BatchUnicastCtx(ctx, reqs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServeWireBatchQ20 runs execute on 64-pair OpBatch frames
// the way slserve serves the q20-batch workload: a Q20 service with
// 2000 uniform faults, a registry and the flight recorder, and random
// pairs of distinct nonfaulty nodes from a ring of 2^15, so the level
// table does not stay in cache between frames as 64 fixed pairs on Q10
// would. Almost every source is safe, so Summaries decides almost every
// pair from its source's safe bit. It reports ns/route. Under -benchmem
// it reads 0 B/op: the sampled walk of one answer in summaryCheckEvery
// builds no route.
func BenchmarkServeWireBatchQ20(b *testing.B) { benchWireBatchQ20(b, 2000) }

// BenchmarkServeWireBatchQ20Dense is BenchmarkServeWireBatchQ20 with
// 100,000 faults, where no source is safe: every pair takes the full
// source step, whose own-level read goes to the 1 MiB level table.
func BenchmarkServeWireBatchQ20Dense(b *testing.B) { benchWireBatchQ20(b, 100_000) }

func benchWireBatchQ20(b *testing.B, nfaults int) {
	const batch, ring = 64, 1 << 15
	tp := topo.MustCube(20)
	set := faults.NewSet(tp)
	rng := stats.NewRNG(42)
	if err := faults.InjectUniform(set, rng, nfaults); err != nil {
		b.Fatal(err)
	}
	svc, err := New(set, Options{Registry: obs.NewRegistry()})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(svc.Close)
	ws := bareWireServer(svc)
	type frame struct {
		hdr  wire.Header
		body []byte
	}
	frames := make([]frame, 0, ring/batch)
	pairs := make([]wire.Pair, batch)
	as, safe := svc.Current().Assignment(), 0
	for len(frames) < cap(frames) {
		for i := range pairs {
			for {
				s, d := topo.NodeID(rng.Intn(tp.Nodes())), topo.NodeID(rng.Intn(tp.Nodes()))
				if s != d && !set.NodeFaulty(s) && !set.NodeFaulty(d) {
					pairs[i] = wire.Pair{Src: uint32(s), Dst: uint32(d)}
					if as.OwnLevel(s) == tp.Dim() {
						safe++
					}
					break
				}
			}
		}
		f := wire.AppendFrame(nil, wire.OpBatch, 0, uint64(len(frames)), wire.AppendBatchReq(nil, 0, pairs))
		hdr, err := wire.ParseHeader(f)
		if err != nil {
			b.Fatal(err)
		}
		frames = append(frames, frame{hdr, f[wire.HeaderSize:]})
	}
	if nfaults == 100_000 && safe > 0 {
		b.Fatalf("%d of the %d sources are safe, want none", safe, ring)
	}
	var cs connState
	wire.PutBuf(ws.execute(frames[0].hdr, frames[0].body, &cs)) // size the scratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := frames[i%len(frames)]
		wire.PutBuf(ws.execute(f.hdr, f.body, &cs))
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/batch, "ns/route")
}

// BenchmarkServeSwap measures the writer path in isolation: apply one
// event and wait for the published swap (repair + detach + pointer
// store), alternating fail/recover so the fault load stays fixed.
func BenchmarkServeSwap(b *testing.B) {
	s := benchService(b, Options{})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var ev faults.ChurnEvent
		if i%2 == 0 {
			ev = faults.ChurnEvent{Kind: faults.DeltaFailNode, A: 777}
		} else {
			ev = faults.ChurnEvent{Kind: faults.DeltaRecoverNode, A: 777}
		}
		if err := s.Apply(ev); err != nil {
			b.Fatal(err)
		}
		s.Flush()
	}
}

// BenchmarkServeApplyVisibleQ20 measures the control plane at scale:
// one fail or recover event on a Q20 service with 2000 faults, from
// TryApply until Flush returns with the repaired snapshot published.
// The repair itself touches a few dozen nodes, so a publish that copied
// or scanned the 1 MiB level table would dominate this number.
func BenchmarkServeApplyVisibleQ20(b *testing.B) {
	tp := topo.MustCube(20)
	set := faults.NewSet(tp)
	rng := stats.NewRNG(7)
	if err := faults.InjectUniform(set, rng, 2000); err != nil {
		b.Fatal(err)
	}
	victims := make([]topo.NodeID, 0, 64)
	for len(victims) < cap(victims) {
		if v := topo.NodeID(rng.Intn(tp.Nodes())); !set.NodeFaulty(v) && !slices.Contains(victims, v) {
			victims = append(victims, v)
		}
	}
	s, err := New(set, Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(s.Close)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev := faults.ChurnEvent{Kind: faults.DeltaFailNode, A: victims[i/2%len(victims)]}
		if i%2 == 1 {
			ev.Kind = faults.DeltaRecoverNode
		}
		if err := s.TryApply(ev); err != nil {
			b.Fatal(err)
		}
		s.Flush()
	}
}
