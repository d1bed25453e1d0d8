package serve

import (
	"context"
	"errors"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/topo"
	"repro/internal/wire"
)

// newWireServer spins a Service plus a bound WireServer on a loopback
// port and returns both with cleanup registered.
func newWireServer(t *testing.T, svcOpts Options, wsOpts WireOptions, failed ...topo.NodeID) (*Service, *WireServer) {
	t.Helper()
	svc := newService(t, topo.MustCube(6), svcOpts, failed...)
	ws, err := ListenWire(svc, "127.0.0.1:0", wsOpts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ws.Close() })
	return svc, ws
}

func dialWire(t *testing.T, ws *WireServer, opts wire.ClientOptions) *wire.Client {
	t.Helper()
	c, err := wire.Dial(ws.Addr(), opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func TestWireServerEndToEnd(t *testing.T) {
	svc, ws := newWireServer(t, Options{}, WireOptions{}, 3, 12)
	c := dialWire(t, ws, wire.ClientOptions{})
	ctx := context.Background()

	pr, err := c.Ping(ctx)
	if err != nil || pr.Major != wire.Major || pr.Minor != wire.Minor {
		t.Fatalf("ping: %+v, %v", pr, err)
	}

	// Wire answers must match the in-process engine answer for answer.
	for src := 0; src < 8; src++ {
		for dst := 56; dst < 64; dst++ {
			want := svc.Current().Route(topo.NodeID(src), topo.NodeID(dst))
			got, err := c.Unicast(ctx, uint32(src), uint32(dst))
			if err != nil {
				t.Fatalf("unicast %d->%d: %v", src, dst, err)
			}
			if got.Route.Outcome != uint8(want.Outcome) || got.Route.Cond != uint8(want.Condition) ||
				got.Route.Hamming != uint16(want.Hamming) || got.Route.Hops != uint16(want.Len()) {
				t.Fatalf("unicast %d->%d: wire %+v, engine %v/%v d=%d h=%d",
					src, dst, got.Route, want.Outcome, want.Condition, want.Hamming, want.Len())
			}
		}
	}

	pairs := []wire.Pair{{Src: 0, Dst: 63}, {Src: 5, Dst: 5}, {Src: 7, Dst: 56}}
	gen, routes, err := c.Batch(ctx, pairs, nil)
	if err != nil || len(routes) != len(pairs) {
		t.Fatalf("batch: %d routes, %v", len(routes), err)
	}
	if gen != svc.Generation() {
		t.Fatalf("batch generation %d, engine %d", gen, svc.Generation())
	}
	for i, p := range pairs {
		want := svc.Current().Route(topo.NodeID(p.Src), topo.NodeID(p.Dst))
		if routes[i].Outcome != uint8(want.Outcome) || routes[i].Hops != uint16(want.Len()) {
			t.Fatalf("batch[%d]: wire %+v, engine %v h=%d", i, routes[i], want.Outcome, want.Len())
		}
	}

	fr, err := c.Feasibility(ctx, 0, 63)
	if err != nil {
		t.Fatalf("feasibility: %v", err)
	}
	sum := svc.Current().Summary(0, 63)
	if fr.Cond != uint8(sum.Condition) || fr.Outcome != uint8(sum.Outcome) {
		t.Fatalf("feasibility: wire %+v, engine %v/%v", fr, sum.Condition, sum.Outcome)
	}

	// Fault delta round-trips through the apply queue and shows up in a
	// later snapshot.
	before := svc.Generation()
	if _, err := c.Fault(ctx, wire.FaultReq{Kind: uint8(faults.DeltaFailNode), A: 9}); err != nil {
		t.Fatalf("fault: %v", err)
	}
	svc.Flush()
	if svc.Generation() == before {
		t.Fatal("fault delta did not advance the generation")
	}
	r, err := c.Unicast(ctx, 9, 0)
	if err != nil {
		t.Fatalf("unicast from failed node: %v", err)
	}
	want := svc.Current().Route(9, 0)
	if r.Route.Outcome != uint8(want.Outcome) {
		t.Fatalf("post-fault route: wire outcome %d, engine %v", r.Route.Outcome, want.Outcome)
	}
}

// TestWireFeasibilityFaultySource checks that OpFeasibility answers a
// faulty source with failure, as OpUnicast does for the same pair.
func TestWireFeasibilityFaultySource(t *testing.T) {
	_, ws := newWireServer(t, Options{}, WireOptions{}, 3)
	c := dialWire(t, ws, wire.ClientOptions{})
	ctx := context.Background()
	fr, err := c.Feasibility(ctx, 3, 60)
	if err != nil {
		t.Fatal(err)
	}
	ur, err := c.Unicast(ctx, 3, 60)
	if err != nil {
		t.Fatal(err)
	}
	if fr.Outcome != uint8(core.Failure) || fr.Cond != uint8(core.CondNone) ||
		fr.Outcome != ur.Route.Outcome || fr.Cond != ur.Route.Cond {
		t.Fatalf("faulty source: OpFeasibility %+v, OpUnicast %+v", fr, ur.Route)
	}
}

// TestWireFeasibilityAdmitted pins that OpFeasibility runs the
// admission, drain and flight sequence OpUnicast runs: with a burst of
// one at one token a second, frames beyond the burst are shed with
// the typed overload error, every frame, answered or shed, leaves one
// flight record of kind route, each answered one counts in
// serve_routes_total, and once the service drains a frame is refused.
func TestWireFeasibilityAdmitted(t *testing.T) {
	reg := obs.NewRegistry()
	svc, ws := newWireServer(t, Options{Rate: 1, Burst: 1, Registry: reg}, WireOptions{})
	c := dialWire(t, ws, wire.ClientOptions{})
	ctx := context.Background()
	fl := svc.Flight()
	before := fl.Snapshot(0).Issued
	const frames = 50
	served, shed := 0, 0
	for i := 0; i < frames; i++ {
		_, err := c.Feasibility(ctx, 0, 63)
		switch {
		case err == nil:
			served++
		case errors.Is(err, wire.ErrOverload):
			shed++
		default:
			t.Fatalf("feasibility frame %d: %v", i, err)
		}
	}
	if served == 0 || shed == 0 {
		t.Fatalf("of %d feasibility frames %d were answered and %d shed; a burst of one must do both", frames, served, shed)
	}
	if got := fl.Snapshot(0).Issued - before; got != frames {
		t.Fatalf("%d feasibility frames were issued %d flight IDs, want one each", frames, got)
	}
	routes := 0
	for _, rec := range fl.Records(0) {
		if rec.Kind == obs.ReqRoute {
			routes++
		}
	}
	if routes != frames {
		t.Fatalf("%d flight records of kind route, want %d", routes, frames)
	}
	if got := reg.Counter(obs.MetricServeRoutesTotal).Value(); got != int64(served) {
		t.Fatalf("%s = %d, want %d", obs.MetricServeRoutesTotal, got, served)
	}
	if err := svc.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Feasibility(ctx, 0, 63); !errors.Is(err, wire.ErrDraining) {
		t.Fatalf("feasibility frame after Shutdown: %v, want ErrDraining", err)
	}
}

func TestWireServerFlightIDThreaded(t *testing.T) {
	reg := obs.NewRegistry()
	fl := obs.NewFlightRecorder(obs.FlightOptions{Records: 64, Registry: reg})
	svc := newService(t, topo.MustCube(6), Options{Flight: fl, Registry: reg})
	ws, err := ListenWire(svc, "127.0.0.1:0", WireOptions{Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer ws.Close()
	c := dialWire(t, ws, wire.ClientOptions{})

	r, err := c.Unicast(context.Background(), 1, 62)
	if err != nil {
		t.Fatal(err)
	}
	if r.FlightID == 0 {
		t.Fatal("wire response carries no flight-recorder ID")
	}
	snap := fl.Snapshot(0)
	found := false
	for _, rec := range snap.Records {
		if rec.ID == r.FlightID {
			found = true
		}
	}
	if !found {
		t.Fatalf("flight ID %d not present in recorder snapshot", r.FlightID)
	}
}

// TestWireBatchLimit checks the default OpBatch limit the HTTP /batch
// endpoint shares: MaxBatchPairs pairs are answered on one snapshot,
// one more is refused with the typed too-large error and the
// connection survives.
func TestWireBatchLimit(t *testing.T) {
	_, ws := newWireServer(t, Options{}, WireOptions{})
	c := dialWire(t, ws, wire.ClientOptions{})
	ctx := context.Background()
	pairs := make([]wire.Pair, MaxBatchPairs+1)
	for i := range pairs {
		pairs[i] = wire.Pair{Src: uint32(i % 64), Dst: uint32(63 - i%64)}
	}
	_, routes, err := c.Batch(ctx, pairs[:MaxBatchPairs], nil)
	if err != nil || len(routes) != MaxBatchPairs {
		t.Fatalf("batch of %d pairs: %d routes, %v", MaxBatchPairs, len(routes), err)
	}
	if _, _, err := c.Batch(ctx, pairs, nil); !errors.Is(err, wire.ErrTooLarge) {
		t.Fatalf("batch of %d pairs: got %v, want ErrTooLarge", len(pairs), err)
	}
	if _, err := c.Ping(ctx); err != nil {
		t.Fatalf("connection unusable after the refusal: %v", err)
	}
}

func TestWireServerTypedRefusals(t *testing.T) {
	// Rate 1e-9 admits essentially nothing after the first token.
	_, ws := newWireServer(t, Options{Rate: 1e-9, Burst: 1}, WireOptions{})
	c := dialWire(t, ws, wire.ClientOptions{})
	ctx := context.Background()

	// Exhaust the single token, then expect typed overload.
	var sawOverload bool
	for i := 0; i < 5; i++ {
		if _, err := c.Unicast(ctx, 0, 63); errors.Is(err, wire.ErrOverload) {
			sawOverload = true
			break
		}
	}
	if !sawOverload {
		t.Fatal("admission control never surfaced as wire.ErrOverload")
	}

	// Out-of-topology node: typed bad request, connection survives.
	if _, err := c.Feasibility(ctx, 0, 1<<20); !errors.Is(err, wire.ErrBadRequest) {
		t.Fatalf("out-of-range node: got %v, want ErrBadRequest", err)
	}

	// Oversize batch: typed too-large, connection survives.
	big := make([]wire.Pair, MaxBatchPairs+1)
	if _, _, err := c.Batch(ctx, big, nil); !errors.Is(err, wire.ErrTooLarge) {
		t.Fatalf("oversize batch: got %v, want ErrTooLarge", err)
	}

	// Expired deadline budget: typed deadline.
	if _, err := c.Fault(ctx, wire.FaultReq{Kind: 99, A: 0}); !errors.Is(err, wire.ErrBadRequest) {
		t.Fatalf("bad fault kind: got %v, want ErrBadRequest", err)
	}

	// The connection is still healthy after every refusal above.
	if _, err := c.Ping(ctx); err != nil {
		t.Fatalf("connection dead after refusals: %v", err)
	}
}

func TestWireServerDeadlineBudget(t *testing.T) {
	reg := obs.NewRegistry()
	svc, ws := newWireServer(t, Options{}, WireOptions{Registry: reg})
	c := dialWire(t, ws, wire.ClientOptions{})
	frames := func() int64 {
		// A ping's answer means every frame sent before it was read.
		if _, err := c.Ping(context.Background()); err != nil {
			t.Fatal(err)
		}
		return reg.Snapshot().Counters[obs.MetricWireFrames]
	}
	before := frames()
	// A budget spent before the call is refused by the client itself,
	// without sending a frame.
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Millisecond))
	defer cancel()
	if _, err := c.Unicast(ctx, 0, 63); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired budget: got %v, want DeadlineExceeded", err)
	}
	if _, _, err := c.Batch(ctx, []wire.Pair{{Src: 0, Dst: 63}}, nil); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired batch budget: got %v, want DeadlineExceeded", err)
	}
	if sent := frames() - before - 1; sent != 0 {
		t.Errorf("expired calls sent %d frames", sent)
	}
	// A budget that runs out on the server is refused with the typed
	// deadline frame, mirrored from HTTP 504, which the client decodes
	// as ErrDeadline.
	_, err := svc.RouteCtx(ctx, 0, 63)
	code := wireErrCode(err)
	if code != wire.CodeDeadline {
		t.Fatalf("RouteCtx past its deadline: %v maps to %v, want CodeDeadline", err, code)
	}
	got, _, err := wire.ParseError(wire.AppendError(nil, code, ""))
	if err != nil || !errors.Is(got.Err(), wire.ErrDeadline) {
		t.Fatalf("deadline frame decodes to %v (%v), want ErrDeadline", got, err)
	}
}

func TestWireServerDraining(t *testing.T) {
	svc, ws := newWireServer(t, Options{}, WireOptions{})
	c := dialWire(t, ws, wire.ClientOptions{})
	if _, err := c.Unicast(context.Background(), 0, 1); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if err := svc.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Unicast(context.Background(), 0, 1); !errors.Is(err, wire.ErrDraining) {
		t.Fatalf("post-shutdown: got %v, want ErrDraining", err)
	}
}

// TestWireServerResponseOrder pins the per-connection order contract: a
// client that pipelines N mixed requests on one connection reads the N
// responses back in exactly the order it sent them.
func TestWireServerResponseOrder(t *testing.T) {
	_, ws := newWireServer(t, Options{}, WireOptions{})
	nc, err := net.Dial("tcp", ws.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()

	const n = 200
	var sendErr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		var frame []byte
		for i := 0; i < n; i++ {
			// Mix cheap pings with full-diameter unicasts so completion
			// times genuinely interleave across workers.
			frame = frame[:0]
			if i%3 == 0 {
				frame = wire.AppendFrame(frame, wire.OpPing, 0, uint64(i+1), nil)
			} else {
				p := wire.AppendUnicastReq(nil, wire.UnicastReq{Src: 0, Dst: 63})
				frame = wire.AppendFrame(frame, wire.OpUnicast, 0, uint64(i+1), p)
			}
			if _, err := nc.Write(frame); err != nil {
				sendErr = err
				return
			}
		}
	}()

	var buf []byte
	for i := 0; i < n; i++ {
		hdr, _, nbuf, err := wire.ReadFrame(nc, buf, 0)
		buf = nbuf
		if err != nil {
			t.Fatalf("response %d: %v", i, err)
		}
		if hdr.ReqID != uint64(i+1) {
			t.Fatalf("response %d arrived with request ID %d; per-connection order broken", i, hdr.ReqID)
		}
		if hdr.Flags&wire.FlagResponse == 0 {
			t.Fatalf("response %d missing FlagResponse", i)
		}
	}
	wg.Wait()
	if sendErr != nil {
		t.Fatal(sendErr)
	}
}

// TestWireServerCompatVersions is the two-server compatibility check: a
// current (v1.0) client works against a current server, and degrades to
// a typed wire.ErrVersion — no hang, no stream corruption — against a
// server advertising a higher minor version that has dropped v1.0
// support.
func TestWireServerCompatVersions(t *testing.T) {
	_, current := newWireServer(t, Options{}, WireOptions{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	future := serveWire(newService(t, topo.MustCube(6), Options{}), ln, WireOptions{}, wireIdleTimeout, wireMaxConns, wire.Minor+1)
	t.Cleanup(func() { future.Close() })

	cur := dialWire(t, current, wire.ClientOptions{})
	if _, err := cur.Unicast(context.Background(), 0, 63); err != nil {
		t.Fatalf("current server refused a current client: %v", err)
	}

	fut := dialWire(t, future, wire.ClientOptions{})
	// The recommended post-dial handshake surfaces the mismatch as the
	// typed sentinel.
	if _, err := fut.Ping(context.Background()); !errors.Is(err, wire.ErrVersion) {
		t.Fatalf("future server ping: got %v, want ErrVersion", err)
	}
	// Every data-plane op degrades the same way, and the connection
	// survives each refusal (framing is intact, semantics are refused).
	if _, err := fut.Unicast(context.Background(), 0, 63); !errors.Is(err, wire.ErrVersion) {
		t.Fatalf("future server unicast: got %v, want ErrVersion", err)
	}
	if _, _, err := fut.Batch(context.Background(), []wire.Pair{{Src: 0, Dst: 1}}, nil); !errors.Is(err, wire.ErrVersion) {
		t.Fatalf("future server batch: got %v, want ErrVersion", err)
	}
	// The refusal message names the version the server wants, so an
	// operator reading client logs knows what to upgrade to.
	_, err = fut.Ping(context.Background())
	if err == nil || !errors.Is(err, wire.ErrVersion) {
		t.Fatalf("expected version refusal, got %v", err)
	}
}

// TestWireServerFutureMinorFrameRefused drives the other direction with
// a raw socket: a frame stamped with a FUTURE minor against a current
// server is refused with CodeVersion, and the connection stays usable
// for correctly-versioned frames.
func TestWireServerFutureMinorFrameRefused(t *testing.T) {
	_, ws := newWireServer(t, Options{}, WireOptions{})
	nc, err := net.Dial("tcp", ws.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()

	// Hand-stamp minor = Minor+7.
	var hdr [wire.HeaderSize]byte
	wire.PutHeader(hdr[:], wire.Header{
		Major: wire.Major, Minor: wire.Minor + 7,
		Op: wire.OpPing, ReqID: 1,
	})
	if _, err := nc.Write(hdr[:]); err != nil {
		t.Fatal(err)
	}
	h, payload, buf, err := wire.ReadFrame(nc, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if h.Op != wire.OpError {
		t.Fatalf("future-minor frame answered with %v, want error frame", h.Op)
	}
	code, msg, err := wire.ParseError(payload)
	if err != nil || code != wire.CodeVersion {
		t.Fatalf("refusal code %d (%q), err %v; want CodeVersion", code, msg, err)
	}

	// Same connection, correct version: served.
	frame := wire.AppendFrame(nil, wire.OpPing, 0, 2, nil)
	if _, err := nc.Write(frame); err != nil {
		t.Fatal(err)
	}
	h, _, _, err = wire.ReadFrame(nc, buf, 0)
	if err != nil || h.Op != wire.OpPing || h.ReqID != 2 {
		t.Fatalf("post-refusal ping: %+v, %v", h, err)
	}
}

// TestWireServerOversizePayloadDropsConn pins the too-large handling: a
// header advertising a payload beyond the server limit gets a typed
// CodeTooLarge answer and then the connection is dropped (the stream
// position is unrecoverable).
func TestWireServerOversizePayloadDropsConn(t *testing.T) {
	_, ws := newWireServer(t, Options{}, WireOptions{})
	nc, err := net.Dial("tcp", ws.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()

	var hdr [wire.HeaderSize]byte
	wire.PutHeader(hdr[:], wire.Header{
		Major: wire.Major, Minor: wire.Minor,
		Op: wire.OpBatch, ReqID: 7, Len: wire.DefaultMaxPayload + 1,
	})
	if _, err := nc.Write(hdr[:]); err != nil {
		t.Fatal(err)
	}
	h, payload, buf, err := wire.ReadFrame(nc, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if h.Op != wire.OpError || h.ReqID != 7 {
		t.Fatalf("oversize answered with %+v", h)
	}
	if code, _, err := wire.ParseError(payload); err != nil || code != wire.CodeTooLarge {
		t.Fatalf("refusal code %d, err %v; want CodeTooLarge", code, err)
	}
	// The server closes the stream after the refusal.
	nc.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, _, _, err := wire.ReadFrame(nc, buf, 0); !errors.Is(err, io.EOF) {
		t.Fatalf("connection survived an unrecoverable stream position: %v", err)
	}
}

func TestWireServerGarbageStream(t *testing.T) {
	_, ws := newWireServer(t, Options{}, WireOptions{})
	nc, err := net.Dial("tcp", ws.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	if _, err := nc.Write([]byte("GET /route?src=0&dst=1 HTTP/1.1\r\nHost: x\r\n\r\n")); err != nil {
		t.Fatal(err)
	}
	nc.SetReadDeadline(time.Now().Add(2 * time.Second))
	// Bad magic: the server drops the connection without answering.
	one := make([]byte, 1)
	if _, err := nc.Read(one); err == nil {
		t.Fatal("server answered a non-protocol stream")
	}
}

func TestWireServerUnknownOp(t *testing.T) {
	_, ws := newWireServer(t, Options{}, WireOptions{})
	nc, err := net.Dial("tcp", ws.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	frame := wire.AppendFrame(nil, wire.Op(99), 0, 5, []byte{1, 2, 3})
	if _, err := nc.Write(frame); err != nil {
		t.Fatal(err)
	}
	h, payload, _, err := wire.ReadFrame(nc, nil, 0)
	if err != nil || h.Op != wire.OpError {
		t.Fatalf("unknown op: %+v, %v", h, err)
	}
	if code, _, _ := wire.ParseError(payload); code != wire.CodeUnknownOp {
		t.Fatalf("code %d, want CodeUnknownOp", code)
	}
}

func TestWireServerMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	svc := newService(t, topo.MustCube(6), Options{})
	ws, err := ListenWire(svc, "127.0.0.1:0", WireOptions{Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer ws.Close()
	c := dialWire(t, ws, wire.ClientOptions{})
	if _, err := c.Unicast(context.Background(), 0, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Feasibility(context.Background(), 0, 1<<20); !errors.Is(err, wire.ErrBadRequest) {
		t.Fatal(err)
	}
	dump := reg.Snapshot()
	if dump.Counters[obs.MetricWireAccepted] < 1 {
		t.Fatalf("accepted counter %d, want >= 1", dump.Counters[obs.MetricWireAccepted])
	}
	if dump.Counters[obs.MetricWireFrames] < 2 {
		t.Fatalf("frames counter %d, want >= 2", dump.Counters[obs.MetricWireFrames])
	}
	if dump.Counters[obs.MetricWireErrorFrames] < 1 {
		t.Fatalf("error-frames counter %d, want >= 1", dump.Counters[obs.MetricWireErrorFrames])
	}
	if g, ok := dump.Gauges[obs.MetricWireConns]; !ok || g < 1 {
		t.Fatalf("conns gauge %d, want >= 1", g)
	}
}

func TestWireServerCloseIdempotent(t *testing.T) {
	_, ws := newWireServer(t, Options{}, WireOptions{})
	c := dialWire(t, ws, wire.ClientOptions{})
	if _, err := c.Ping(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := ws.Close(); err != nil {
		t.Fatal(err)
	}
	if err := ws.Close(); err != nil {
		t.Fatal(err)
	}
	// Post-close calls fail promptly, not hang.
	if _, err := c.Ping(context.Background()); err == nil {
		t.Fatal("ping succeeded against a closed wire server")
	}
}

// TestWireServerQueueBackpressure floods one connection with pipelined
// requests and checks every request is still answered exactly once in
// order — backpressure must stall the client in the kernel, never drop
// work.
func TestWireServerQueueBackpressure(t *testing.T) {
	_, ws := newWireServer(t, Options{}, WireOptions{})
	nc, err := net.Dial("tcp", ws.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()

	const n = 500
	go func() {
		p := wire.AppendUnicastReq(nil, wire.UnicastReq{Src: 0, Dst: 63})
		var frame []byte
		for i := 0; i < n; i++ {
			frame = wire.AppendFrame(frame[:0], wire.OpUnicast, 0, uint64(i+1), p)
			if _, err := nc.Write(frame); err != nil {
				return
			}
		}
	}()
	var buf []byte
	for i := 0; i < n; i++ {
		h, _, nbuf, err := wire.ReadFrame(nc, buf, 0)
		buf = nbuf
		if err != nil {
			t.Fatalf("response %d: %v", i, err)
		}
		if h.ReqID != uint64(i+1) {
			t.Fatalf("response %d has ID %d", i, h.ReqID)
		}
	}
}
