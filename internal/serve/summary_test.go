package serve

import (
	"context"
	"runtime"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/stats"
	"repro/internal/topo"
	"repro/internal/wire"
)

// Tests of the wire answers decided at the source: the generation they
// carry, their allocations, the sampled walk that checks them, and the
// detached fault view they route on.

// totalAllocs is testing.AllocsPerRun without the division: the heap
// allocations of runs calls of f after one warm-up call, at GOMAXPROCS
// 1, in total, so that a rare allocation is not rounded away.
func totalAllocs(runs int, f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// executeFrame runs one encoded request frame through ws's execute
// path, as a connection's goroutine does, and returns the parsed
// response header and a copy of its payload.
func executeFrame(t testing.TB, ws *WireServer, cs *connState, frame []byte) (wire.Header, []byte) {
	t.Helper()
	hdr, err := wire.ParseHeader(frame)
	if err != nil {
		t.Fatal(err)
	}
	out := ws.execute(hdr, frame[wire.HeaderSize:], cs)
	rh, err := wire.ParseHeader(out)
	if err != nil {
		t.Fatal(err)
	}
	payload := append([]byte(nil), out[wire.HeaderSize:]...)
	wire.PutBuf(out)
	return rh, payload
}

// bareWireServer is a WireServer with no listener, for driving execute
// directly.
func bareWireServer(svc *Service) *WireServer {
	return &WireServer{svc: svc}
}

// TestWireAnswersCarryRoutedGeneration pins that a wire answer carries
// the generation of the snapshot it was decided on, while snapshots are
// published as fast as the applier can: every unicast answer's
// generation equals its flight record's, and every answer, unicast or
// batch, equals the walk on the snapshot published at that generation.
// The routed pairs start at a node that fails and recovers on every
// publish, so an answer labeled with a neighboring generation is wrong.
func TestWireAnswersCarryRoutedGeneration(t *testing.T) {
	tp := topo.MustCube(8)
	fl := obs.NewFlightRecorder(obs.FlightOptions{Records: 1 << 15})
	svc := newService(t, tp, Options{Flight: fl}, 40, 77, 130)
	ws, err := ListenWire(svc, "127.0.0.1:0", WireOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ws.Close() })

	const victim = 5
	var mu sync.Mutex
	snaps := map[uint64]*Snapshot{svc.Generation(): svc.Current()}
	stop := make(chan struct{})
	churned := make(chan error, 1)
	go func() {
		for i := 0; ; i++ {
			select {
			case <-stop:
				churned <- nil
				return
			default:
			}
			kind := faults.DeltaFailNode
			if i%2 == 1 {
				kind = faults.DeltaRecoverNode
			}
			if err := svc.Apply(faults.ChurnEvent{Kind: kind, A: victim}); err != nil {
				churned <- err
				return
			}
			svc.Flush()
			sn := svc.Current()
			mu.Lock()
			snaps[sn.Generation()] = sn
			mu.Unlock()
		}
	}()

	type unicast struct {
		dst uint32
		got wire.UnicastResp
	}
	type batch struct {
		gen    uint64
		routes []wire.RouteInfo
	}
	pairs := make([]wire.Pair, 64)
	for i := range pairs {
		pairs[i] = wire.Pair{Src: victim, Dst: uint32(255 - i)}
	}
	const clients, rounds = 2, 1500
	unicasts := make([][]unicast, clients)
	batches := make([][]batch, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		cl := dialWire(t, ws, wire.ClientOptions{})
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			ctx := context.Background()
			for i := 0; i < rounds; i++ {
				dst := uint32(128 + i%128)
				r, err := cl.Unicast(ctx, victim, dst)
				if err != nil {
					t.Error(err)
					return
				}
				unicasts[c] = append(unicasts[c], unicast{dst, r})
				if i%10 == 0 {
					gen, routes, err := cl.Batch(ctx, pairs, nil)
					if err != nil {
						t.Error(err)
						return
					}
					batches[c] = append(batches[c], batch{gen, routes})
				}
			}
		}(c)
	}
	wg.Wait()
	close(stop)
	if err := <-churned; err != nil {
		t.Fatal(err)
	}
	if len(snaps) < 20 {
		t.Fatalf("only %d generations published during the test", len(snaps))
	}

	recGen := map[uint64]uint64{}
	for _, rec := range fl.Records(0) {
		recGen[rec.ID] = rec.Gen
	}
	want := func(gen uint64, src, dst uint32) wire.RouteInfo {
		sn := snaps[gen]
		if sn == nil {
			t.Fatalf("answer at generation %d, which was never published", gen)
		}
		return routeInfoOf(sn.Route(topo.NodeID(src), topo.NodeID(dst)).Summary())
	}
	for c := range unicasts {
		for _, u := range unicasts[c] {
			g, ok := recGen[u.got.FlightID]
			if !ok {
				t.Fatalf("flight record %d missing", u.got.FlightID)
			}
			if u.got.Gen != g {
				t.Fatalf("unicast %d->%d: answer generation %d, flight record generation %d", victim, u.dst, u.got.Gen, g)
			}
			if w := want(u.got.Gen, victim, u.dst); u.got.Route != w {
				t.Fatalf("unicast %d->%d at generation %d: %+v, walk %+v", victim, u.dst, u.got.Gen, u.got.Route, w)
			}
		}
		for _, b := range batches[c] {
			for i, p := range pairs {
				if w := want(b.gen, p.Src, p.Dst); b.routes[i] != w {
					t.Fatalf("batch pair %d->%d at generation %d: %+v, walk %+v", p.Src, p.Dst, b.gen, b.routes[i], w)
				}
			}
		}
	}
}

// TestWireExecuteZeroAllocs pins the allocation-free wire data plane:
// one OpUnicast frame and one 64-pair OpBatch frame through execute,
// with the flight recorder on, allocate nothing in steady state. With
// a registry, as slserve always runs, that holds the unicast's route
// observer and the batch's tally and publish to it too. The 1000
// measured runs answer 65,000 pairs, so the sampled walk of one answer
// in summaryCheckEvery runs dozens of times, and the total must be 0:
// testing.AllocsPerRun would round a walk's few allocations per 1000
// runs down to 0.
func TestWireExecuteZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	for _, tc := range []struct {
		name string
		reg  *obs.Registry
	}{{"no registry", nil}, {"registry", obs.NewRegistry()}} {
		tp := topo.MustCube(10)
		svc := newService(t, tp, Options{Registry: tc.reg}, 3, 12, 100, 513, 700)
		if svc.Flight() == nil {
			t.Fatal("flight recorder off")
		}
		ws := bareWireServer(svc)
		// Routes that fail or detour are promoted as incidents, which
		// allocate by design; keep to optimal ones.
		sn := svc.Current()
		var pairs []wire.Pair
		for i := 0; len(pairs) < 64; i++ {
			p := wire.Pair{Src: uint32(i * 37 % 1024), Dst: uint32(i * 101 % 1024)}
			if sn.ref.Summary(topo.NodeID(p.Src), topo.NodeID(p.Dst)).Outcome == core.Optimal {
				pairs = append(pairs, p)
			}
		}
		unicast := wire.AppendFrame(nil, wire.OpUnicast, 0, 1, wire.AppendUnicastReq(nil, wire.UnicastReq{Src: pairs[0].Src, Dst: pairs[0].Dst}))
		batch := wire.AppendFrame(nil, wire.OpBatch, 0, 2, wire.AppendBatchReq(nil, 0, pairs))
		var cs connState
		run := func() {
			for _, f := range [][]byte{unicast, batch} {
				hdr, _ := wire.ParseHeader(f)
				wire.PutBuf(ws.execute(hdr, f[wire.HeaderSize:], &cs))
			}
		}
		run() // size the connection's scratch slices
		const runs = 1000
		if runs*65 < 2*summaryCheckEvery {
			t.Fatalf("%d runs hold fewer than two sampled walks", runs)
		}
		if allocs := totalAllocs(runs, run); allocs != 0 {
			t.Fatalf("%s: %d unicasts and %d 64-pair batches allocate %d times, want 0", tc.name, runs, runs, allocs)
		}
		if got := svc.Flight().Snapshot(0).Issued; got < 2000 {
			t.Fatalf("%s: flight recorder issued %d IDs, want one per frame", tc.name, got)
		}
		// 1002 runs: the sizing run, AllocsPerRun's warm-up and its 1000.
		if tc.reg != nil {
			if got, want := tc.reg.Counter(obs.MetricUnicastsTotal).Value(), int64(1002*65); got != want {
				t.Fatalf("%s = %d, want %d", obs.MetricUnicastsTotal, got, want)
			}
		}
	}
}

// TestSummaryMismatchCounted serves wire answers from a snapshot whose
// levels are not a fixpoint: one GS round on a Q5 with eight faults,
// where forwarding fails on pairs the source admitted (Theorem 3 needs
// the fixpoint). The sampled walk must count each such answer it
// checks in serve_summary_mismatch_total and promote it as an incident
// with the walked trace.
func TestSummaryMismatchCounted(t *testing.T) {
	tp := topo.MustCube(5)
	set := faults.NewSet(tp)
	if err := faults.InjectUniform(set, stats.NewRNG(4), 8); err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	svc, err := New(set, Options{Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc.Close)
	svc.cur.Store(newSnapshot(set.Generation(), core.Compute(set, core.Options{MaxRounds: 1}).Detach(), svc.routeObs))
	sn := svc.Current()
	var bad []wire.Pair
	for a := 0; a < tp.Nodes(); a++ {
		for b := 0; b < tp.Nodes(); b++ {
			if sn.Summary(topo.NodeID(a), topo.NodeID(b)) != sn.ref.Unicast(topo.NodeID(a), topo.NodeID(b)).Summary() {
				bad = append(bad, wire.Pair{Src: uint32(a), Dst: uint32(b)})
			}
		}
	}
	if len(bad) == 0 {
		t.Fatal("one GS round left Theorem 3 intact; pick another fault set")
	}
	ws := bareWireServer(svc)
	var cs connState
	// One checked unicast: the sampler's next answer is the 1024th.
	cs.check = summaryCheckEvery - 1
	executeFrame(t, ws, &cs, wire.AppendFrame(nil, wire.OpUnicast, 0, 1,
		wire.AppendUnicastReq(nil, wire.UnicastReq{Src: bad[0].Src, Dst: bad[0].Dst})))
	// A batch of summaryCheckEvery copies of a mismatching pair holds
	// exactly one checked answer.
	pairs := make([]wire.Pair, summaryCheckEvery)
	for i := range pairs {
		pairs[i] = bad[len(bad)-1]
	}
	if rh, _ := executeFrame(t, ws, &cs, wire.AppendFrame(nil, wire.OpBatch, 0, 2, wire.AppendBatchReq(nil, 0, pairs))); rh.Op != wire.OpBatch {
		t.Fatalf("batch answered with %v", rh.Op)
	}
	if got := reg.Counter(obs.MetricServeSummaryMismatch).Value(); got != 2 {
		t.Fatalf("%s = %d, want 2", obs.MetricServeSummaryMismatch, got)
	}
	found := 0
	for _, inc := range svc.Flight().Incidents().Incidents {
		if inc.Reason == "summary-mismatch" {
			if inc.Trace == nil || len(inc.Trace.Events) == 0 {
				t.Fatalf("mismatch incident without the walked trace: %+v", inc)
			}
			found++
		}
	}
	if found != 2 {
		t.Fatalf("%d summary-mismatch incidents, want 2", found)
	}
}

// TestServeDetachedFaultViewUnderChurn replays
// TestServeSnapshotsFrozenUnderChurn's schedule (200 events with link
// faults on Q14, one publish each) beside a live copy of the fault set.
// Every one of the 201 snapshots must answer NodeFaulty on every node
// as its lazily built Faults() and the live set at its generation do.
func TestServeDetachedFaultViewUnderChurn(t *testing.T) {
	tp := topo.MustCube(14)
	s := newService(t, tp, Options{})
	live := faults.NewSet(tp)
	check := func(i int, sn *Snapshot) {
		t.Helper()
		as, view := sn.Assignment(), sn.Faults()
		if sn.Generation() != live.Generation() || view.Generation() != live.Generation() {
			t.Fatalf("snapshot %d: generation %d (view %d), live %d", i, sn.Generation(), view.Generation(), live.Generation())
		}
		for a := 0; a < tp.Nodes(); a++ {
			id := topo.NodeID(a)
			if want := live.NodeFaulty(id); as.NodeFaulty(id) != want || view.NodeFaulty(id) != want {
				t.Fatalf("snapshot %d node %d: detached %v, view %v, live %v", i, a, as.NodeFaulty(id), view.NodeFaulty(id), want)
			}
		}
		if view.NodeFaults() != live.NodeFaults() || view.LinkFaults() != live.LinkFaults() {
			t.Fatalf("snapshot %d: view %s, live %s", i, view, live)
		}
	}
	check(0, s.Current())
	for i, ev := range faults.ChurnSchedule(tp, 23, 200, faults.ChurnOptions{Links: true}) {
		if err := s.Apply(ev); err != nil {
			t.Fatalf("event %d (%v): %v", i, ev, err)
		}
		if err := live.Apply(ev); err != nil {
			t.Fatal(err)
		}
		s.Flush()
		check(i+1, s.Current())
	}
}
