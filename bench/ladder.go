package main

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/topo"
	"repro/internal/wire"
)

// The per-layer ladder. Each row times one layer's public call on the
// workload's own pair stream (or fault events), from the benchmark's
// side of the call; nothing inside the program is instrumented. A row
// runs its call in chunks until its time budget is spent and reports
// the median per-call time across chunks; each chunk is a span.

// controlEvents is how many of the workload's fault events the
// control-plane rows replay.
const controlEvents = 96

// chunkTarget is the wall time one timed chunk aims at: long enough to
// dwarf the clock read, short enough to give a median over many chunks.
const chunkTarget = 200 * time.Microsecond

type ladder struct {
	tr     *tracer
	root   int
	budget time.Duration
	sink   int // keeps timed results live
}

// row times op(i) over consecutive inputs and returns the median ns per
// call.
func (l *ladder) row(name string, op func(i int)) float64 {
	runtime.GC() // start each row without the previous row's garbage
	chunk := calibrate(op)
	id := l.tr.open(l.root, name)
	defer l.tr.close(id)
	var per []float64
	end := time.Now().Add(l.budget)
	for i := 0; len(per) < 5 || time.Now().Before(end); i += chunk {
		t0 := time.Now()
		for k := 0; k < chunk; k++ {
			op(i + k)
		}
		t1 := time.Now()
		l.tr.addTimes(id, name, int64(i%pairRing), t0, t1)
		per = append(per, float64(t1.Sub(t0).Nanoseconds())/float64(chunk))
	}
	return median(per)
}

// rowPair times a and b in alternating chunks over the same inputs, so
// drift on the machine hits both alike.
func (l *ladder) rowPair(nameA, nameB string, a, b func(i int)) (float64, float64) {
	runtime.GC()
	chunk := calibrate(a)
	ida, idb := l.tr.open(l.root, nameA), l.tr.open(l.root, nameB)
	defer l.tr.close(ida)
	defer l.tr.close(idb)
	var pa, pb []float64
	end := time.Now().Add(2 * l.budget)
	for i := 0; len(pa) < 5 || time.Now().Before(end); i += chunk {
		for _, c := range []struct {
			id  int
			op  func(int)
			out *[]float64
			n   string
		}{{ida, a, &pa, nameA}, {idb, b, &pb, nameB}} {
			t0 := time.Now()
			for k := 0; k < chunk; k++ {
				c.op(i + k)
			}
			t1 := time.Now()
			l.tr.addTimes(c.id, c.n, int64(i%pairRing), t0, t1)
			*c.out = append(*c.out, float64(t1.Sub(t0).Nanoseconds())/float64(chunk))
		}
	}
	return median(pa), median(pb)
}

// calibrate returns the chunk size that makes one chunk of op take
// about chunkTarget.
func calibrate(op func(i int)) int {
	for n := 1; ; n *= 2 {
		t0 := time.Now()
		for k := 0; k < n; k++ {
			op(k)
		}
		if time.Since(t0) >= chunkTarget || n >= 1<<20 {
			return n
		}
	}
}

// allocsPerCall returns the heap allocations and bytes per call of op.
func allocsPerCall(n int, op func(i int)) (allocs, bytes float64) {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	for i := 0; i < n; i++ {
		op(i)
	}
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs-a.Mallocs) / float64(n), float64(b.TotalAlloc-a.TotalAlloc) / float64(n)
}

// repeat times f until the budget is spent (at least once) and returns
// the median ns.
func (l *ladder) repeat(name string, f func()) float64 {
	runtime.GC()
	id := l.tr.open(l.root, name)
	defer l.tr.close(id)
	var per []float64
	end := time.Now().Add(l.budget)
	for k := 0; k == 0 || time.Now().Before(end); k++ {
		t0 := time.Now()
		f()
		t1 := time.Now()
		l.tr.addTimes(id, name, int64(k), t0, t1)
		per = append(per, float64(t1.Sub(t0).Nanoseconds()))
	}
	return median(per)
}

// runLadder measures every in-process row on the workload's inputs and
// stores the results in m.
func runLadder(in *inputs, l *ladder, m *result) error {
	ctx := context.Background()
	t := in.cube
	ps := in.pairs[0]
	pair := func(i int) (topo.NodeID, topo.NodeID) {
		q := ps[i%pairRing]
		return topo.NodeID(q.Src), topo.NodeID(q.Dst)
	}
	var firstErr error
	keep := func(err error) {
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}

	m.set("topo.distance_ns", l.row("topo.distance", func(i int) { l.sink += t.Distance(pair(i)) }))

	// core: the cold computation the server runs at start-up, then the
	// router over its result. live is the fault set the control-plane
	// rows mutate afterwards.
	live := in.set.Clone()
	var as *core.Assignment
	m.set("core.compute_ms", l.repeat("core.compute", func() { as = core.Compute(live, core.Options{}) })/1e6)
	rt := core.NewRouter(as, nil)
	m.set("core.feasibility_ns", l.row("core.feasibility", func(i int) {
		c, _ := rt.Feasibility(pair(i))
		l.sink += int(c)
	}))
	unicast := func(i int) { l.sink += rt.Unicast(pair(i)).Len() }
	m.set("core.unicast_ns", l.row("core.unicast", unicast))
	allocs, allocBytes := allocsPerCall(4096, unicast)
	m.set("core.unicast_allocs", allocs)
	m.set("core.unicast_bytes", allocBytes)

	// serve: configured as cmd/slserve configures it (registry, flight
	// recorder with its default sizes), plus a bare twin without the
	// recorder for the flight-overhead ratio.
	reg := obs.NewRegistry()
	svc, err := serve.New(in.set, serve.Options{Registry: reg, Flight: obs.NewFlightRecorder(obs.FlightOptions{
		Records: 4096, Incidents: 64, SlowRouteUS: 50000, Registry: reg,
	})})
	if err != nil {
		return err
	}
	defer svc.Close()
	bare, err := serve.New(in.set, serve.Options{NoFlight: true})
	if err != nil {
		return err
	}
	defer bare.Close()
	sn := svc.Current()
	snapNs := l.row("serve.snapshot_route", func(i int) { l.sink += sn.Route(pair(i)).Len() })
	m.set("serve.snapshot_route_ns", snapNs)
	routeCtx := func(s *serve.Service) func(int) {
		return func(i int) {
			src, dst := pair(i)
			r, err := s.RouteCtx(ctx, src, dst)
			keep(err)
			if r != nil {
				l.sink += r.Len()
			}
		}
	}
	ctxNs, bareNs := l.rowPair("serve.routectx", "serve.routectx_noflight", routeCtx(svc), routeCtx(bare))
	m.set("serve.routectx_ns", ctxNs)
	m.set("serve.routectx_self_ns", ctxNs-snapNs)
	m.set("obs.flight_overhead_pct", 100*(ctxNs-bareNs)/bareNs)
	allocs, _ = allocsPerCall(4096, routeCtx(svc))
	m.set("serve.routectx_allocs", allocs)
	reqs := make([]serve.Request, pairRing)
	for i, q := range ps {
		reqs[i] = serve.Request{Src: topo.NodeID(q.Src), Dst: topo.NodeID(q.Dst)}
	}
	m.set("serve.batch64_ns_per_route", l.row("serve.batch64", func(i int) {
		off := (i * batchSize) % pairRing
		_, err := svc.BatchUnicastCtx(ctx, reqs[off:off+batchSize])
		keep(err)
	})/batchSize)

	// wire codec: one unicast request frame per pair.
	var payload, frame []byte
	m.set("wire.encode_ns", l.row("wire.encode", func(i int) {
		q := ps[i%pairRing]
		payload = wire.AppendUnicastReq(payload[:0], wire.UnicastReq{Src: q.Src, Dst: q.Dst})
		frame = wire.AppendFrame(frame[:0], wire.OpUnicast, 0, uint64(i), payload)
	}))
	frames := make([][]byte, 1024)
	for i := range frames {
		q := ps[i]
		frames[i] = wire.AppendFrame(nil, wire.OpUnicast, 0, uint64(i),
			wire.AppendUnicastReq(nil, wire.UnicastReq{Src: q.Src, Dst: q.Dst}))
	}
	var rd bytes.Reader
	var rbuf []byte
	m.set("wire.decode_ns", l.row("wire.decode", func(i int) {
		rd.Reset(frames[i%len(frames)])
		_, p, nbuf, err := wire.ReadFrame(&rd, rbuf, 0)
		rbuf = nbuf
		keep(err)
		req, err := wire.ParseUnicastReq(p)
		keep(err)
		l.sink += int(req.Src)
	}))

	// wire server in process over loopback.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	ws := serve.NewWireServer(svc, ln, serve.WireOptions{Registry: reg})
	defer ws.Close()
	cl, err := wire.Dial(ws.Addr(), wire.ClientOptions{})
	if err != nil {
		return err
	}
	defer cl.Close()
	rttNs := l.row("serve.wire_unicast", func(i int) {
		q := ps[i%pairRing]
		_, err := cl.Unicast(ctx, q.Src, q.Dst)
		keep(err)
	})
	m.set("serve.wire_unicast_rtt_us", rttNs/1e3)
	m.set("serve.wire_self_us", (rttNs-ctxNs)/1e3)
	routes := make([]wire.RouteInfo, 0, batchSize)
	m.set("serve.wire_batch64_ns_per_route", l.row("serve.wire_batch64", func(i int) {
		off := (i * batchSize) % pairRing
		var err error
		_, routes, err = cl.Batch(ctx, ps[off:off+batchSize], routes)
		keep(err)
	})/batchSize)

	// control plane: the first controlEvents events, applied to the
	// live set and repaired step by step, then through the service's
	// apply queue until the new snapshot is published.
	evs := in.events
	if len(evs) > controlEvents {
		evs = evs[:controlEvents]
	}
	var applyNs, repairNs, detachNs, visibleNs []float64
	evals := 0
	id := l.tr.open(l.root, "control")
	for k, ev := range evs {
		gen := live.Generation()
		t0 := time.Now()
		keep(live.Apply(ev))
		t1 := time.Now()
		delta, ok := live.Since(gen)
		next, repaired := core.RepairLevels(as, live, delta, core.Options{})
		t2 := time.Now()
		if !ok || !repaired {
			return fmt.Errorf("event %d (%v): repair refused", k, ev)
		}
		det := next.Detach()
		t3 := time.Now()
		l.sink += det.Level(0)
		as = next
		evals += next.Evals()
		l.tr.addTimes(id, "faults.apply", int64(k), t0, t1)
		l.tr.addTimes(id, "core.repair", int64(k), t1, t2)
		l.tr.addTimes(id, "core.detach", int64(k), t2, t3)
		applyNs = append(applyNs, float64(t1.Sub(t0).Nanoseconds()))
		repairNs = append(repairNs, float64(t2.Sub(t1).Nanoseconds()))
		detachNs = append(detachNs, float64(t3.Sub(t2).Nanoseconds()))
	}
	for k, ev := range evs {
		t0 := time.Now()
		if err := svc.TryApply(ev); err != nil {
			return fmt.Errorf("event %d (%v): %w", k, ev, err)
		}
		svc.Flush()
		t1 := time.Now()
		l.tr.addTimes(id, "serve.apply_visible", int64(k), t0, t1)
		visibleNs = append(visibleNs, float64(t1.Sub(t0).Nanoseconds()))
	}
	l.tr.close(id)
	repairUs, detachUs, visibleUs := median(repairNs)/1e3, median(detachNs)/1e3, median(visibleNs)/1e3
	m.set("faults.apply_ns", median(applyNs))
	m.set("core.repair_us", repairUs)
	m.set("core.repair_evals_per_event", float64(evals)/float64(len(evs)))
	m.set("core.detach_us", detachUs)
	m.set("serve.apply_visible_us", visibleUs)
	m.set("serve.apply_self_us", visibleUs-repairUs-detachUs)
	return firstErr
}

// serverRows times the shipped slserve binary from outside: a single
// caller's GET /route round trip, the wall time per route with two
// keep-alive callers, and the wall time per route with 32 callers
// coalesced into pipelined OpBatch frames over two wire connections
// (the shape of the old BENCH_8 claim, whose ratio is reported).
func serverRows(in *inputs, s *server, l *ladder, m *result) error {
	ctx := context.Background()
	ps := in.pairs[0]
	urls := make([]string, 4096)
	for i := range urls {
		q := ps[i]
		urls[i] = s.routeURL(in.cube, q)
	}
	var failed atomic.Int64
	get := func(hc *http.Client, i int) {
		if !getOK(hc, urls[i%len(urls)]) {
			failed.Add(1)
		}
	}
	newHC := func() *http.Client {
		return &http.Client{Timeout: 10 * time.Second, Transport: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1}}
	}
	hc := newHC()
	httpNs := l.row("slserve.http_route", func(i int) { get(hc, i) })
	hc.CloseIdleConnections()
	m.set("slserve.http_route_us", httpNs/1e3)

	hcs := []*http.Client{newHC(), newHC()}
	httpPer := l.parallel("slserve.http_parallel", len(hcs), func(g, i int) { get(hcs[g], g*2048+i) })
	for _, hc := range hcs {
		hc.CloseIdleConnections()
	}
	cl, err := wire.Dial(s.wireAddr, wire.ClientOptions{Conns: 2})
	if err != nil {
		return err
	}
	defer cl.Close()
	co := wire.NewCoalescer(cl, wire.CoalescerOptions{MaxBatch: 32, MaxDelay: 100 * time.Microsecond})
	defer co.Close()
	wirePer := l.parallel("serve.wire_coalesced", 32, func(g, i int) {
		q := ps[(g*1024+i)%pairRing]
		if _, _, err := co.Unicast(ctx, q.Src, q.Dst); err != nil {
			failed.Add(1)
		}
	})
	m.set("serve.wire_coalesced_ns_per_route", wirePer)
	m.set("ratio.http_over_wire", httpPer/wirePer)
	if n := failed.Load(); n > 0 {
		return fmt.Errorf("%d requests to slserve failed in the server rows", n)
	}
	return nil
}

// parallel runs op(g, i) on callers goroutines g, each over consecutive
// inputs i, for the row budget and returns the wall ns per completed
// call.
func (l *ladder) parallel(name string, callers int, op func(g, i int)) float64 {
	runtime.GC()
	id := l.tr.open(l.root, name)
	defer l.tr.close(id)
	var stop atomic.Bool
	var calls atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; !stop.Load(); i++ {
				op(g, i)
				calls.Add(1)
			}
		}(g)
	}
	time.Sleep(l.budget)
	stop.Store(true)
	wg.Wait()
	return float64(time.Since(start).Nanoseconds()) / float64(calls.Load())
}
