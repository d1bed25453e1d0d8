package serve

import (
	"bytes"
	"context"
	"errors"
	"net"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/topo"
	"repro/internal/wire"
)

// Connection-level behaviour of the wire server: the per-frame
// deadline, recovery after abusive clients, and the orderings that
// serving each connection on one goroutine guarantees.

// listenWireIdle serves svc on a loopback :0 listener whose per-frame
// connection deadline is idle.
func listenWireIdle(t *testing.T, svc *Service, idle time.Duration) *WireServer {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ws := serveWire(svc, ln, WireOptions{}, idle, wireMaxConns, 0)
	t.Cleanup(func() { ws.Close() })
	return ws
}

// listenWireCapped serves svc on a loopback :0 listener that serves at
// most maxConns connections at once.
func listenWireCapped(t *testing.T, svc *Service, maxConns int) *WireServer {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ws := serveWire(svc, ln, WireOptions{}, wireIdleTimeout, maxConns, 0)
	t.Cleanup(func() { ws.Close() })
	return ws
}

func dialRaw(t *testing.T, ws *WireServer) net.Conn {
	t.Helper()
	nc, err := net.Dial("tcp", ws.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nc.Close() })
	return nc
}

func trackedConns(ws *WireServer) int {
	ws.mu.Lock()
	defer ws.mu.Unlock()
	return len(ws.conns)
}

// connGoroutines counts the goroutines that serve wire connections or
// were started to.
func connGoroutines() int {
	buf := make([]byte, 1<<20)
	for runtime.Stack(buf, true) == len(buf) {
		buf = make([]byte, 2*len(buf))
	}
	n := 0
	for _, g := range strings.Split(string(buf), "\n\n") {
		if strings.Contains(g, "(*WireServer).serveConn") {
			n++
		}
	}
	return n
}

// waitFor polls cond until it holds or within has passed.
func waitFor(within time.Duration, cond func() bool) bool {
	deadline := time.Now().Add(within)
	for !cond() {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(5 * time.Millisecond)
	}
	return true
}

// requireRecovered checks that a server hit by an abusive client is
// back to its baseline within 5 s: no tracked connection, no extra
// goroutine, nothing in flight, a fresh connection answered, and no
// torn snapshot read recorded.
func requireRecovered(t *testing.T, ws *WireServer, svc *Service, goroutines int) {
	t.Helper()
	if !waitFor(5*time.Second, func() bool { return trackedConns(ws) == 0 }) {
		t.Fatalf("server still tracks %d connections", trackedConns(ws))
	}
	if !waitFor(5*time.Second, func() bool { return runtime.NumGoroutine() <= goroutines }) {
		t.Fatalf("%d goroutines, baseline %d", runtime.NumGoroutine(), goroutines)
	}
	if !waitFor(5*time.Second, func() bool { return svc.Inflight() == 0 }) {
		t.Fatalf("%d requests still in flight", svc.Inflight())
	}
	nc := dialRaw(t, ws)
	if _, err := nc.Write(wire.AppendFrame(nil, wire.OpPing, 0, 99, nil)); err != nil {
		t.Fatal(err)
	}
	nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	if h, _, _, err := wire.ReadFrame(nc, nil, 0); err != nil || h.Op != wire.OpPing || h.ReqID != 99 {
		t.Fatalf("fresh connection's ping: %+v, %v", h, err)
	}
	nc.Close()
	for _, r := range svc.Flight().Snapshot(0).Records {
		if r.Err == obs.ErrClassTorn {
			t.Fatalf("flight record %d has the torn class", r.ID)
		}
	}
}

// requireDropped reads from nc until the server closes it, and fails
// if the server answers first or keeps the connection past within. It
// returns when it saw the close.
func requireDropped(t *testing.T, nc net.Conn, within time.Duration) time.Time {
	t.Helper()
	nc.SetReadDeadline(time.Now().Add(within))
	n, err := nc.Read(make([]byte, 1))
	if err == nil {
		t.Fatalf("server sent %d bytes instead of closing", n)
	}
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		t.Fatalf("connection still open after %v", within)
	}
	return time.Now()
}

// TestWireConnDeadline pins the per-frame deadline: a client that goes
// silent before or inside a frame, or stops reading its answers, is
// disconnected once the deadline armed before that frame's header
// passes. The server arms it no earlier than the dial, so the lower
// bound is timed from there; the upper bound is timed from the stall
// and allows seconds, since a loaded machine may be slow to close.
func TestWireConnDeadline(t *testing.T) {
	const idle = 200 * time.Millisecond
	svc := newService(t, topo.MustCube(6), Options{})
	ws := listenWireIdle(t, svc, idle)
	ping := wire.AppendFrame(nil, wire.OpPing, 0, 1, nil)
	unicast := wire.AppendFrame(nil, wire.OpUnicast, 0, 2,
		wire.AppendUnicastReq(nil, wire.UnicastReq{Src: 0, Dst: 63}))

	// Each stall drives a client to the point where it stops making
	// progress.
	stalls := []struct {
		name  string
		stall func(t *testing.T, nc net.Conn)
	}{
		{"partial header", func(t *testing.T, nc net.Conn) {
			if _, err := nc.Write(ping[:wire.HeaderSize/2]); err != nil {
				t.Fatal(err)
			}
		}},
		{"partial payload", func(t *testing.T, nc net.Conn) {
			if _, err := nc.Write(unicast[:wire.HeaderSize+3]); err != nil {
				t.Fatal(err)
			}
		}},
		{"idle after a served ping", func(t *testing.T, nc net.Conn) {
			if _, err := nc.Write(ping); err != nil {
				t.Fatal(err)
			}
			if _, _, _, err := wire.ReadFrame(nc, nil, 0); err != nil {
				t.Fatal(err)
			}
		}},
		// Each frame re-arms the deadline, so pings spread over more
		// than one deadline keep the connection until they stop.
		{"idle after pings spread past the deadline", func(t *testing.T, nc net.Conn) {
			for i := 0; i < 6; i++ {
				time.Sleep(idle / 4)
				if _, err := nc.Write(ping); err != nil {
					t.Fatal(err)
				}
				if _, _, _, err := wire.ReadFrame(nc, nil, 0); err != nil {
					t.Fatalf("ping %d: %v", i, err)
				}
			}
		}},
	}
	for _, c := range stalls {
		t.Run(c.name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			dialed := time.Now()
			nc := dialRaw(t, ws)
			c.stall(t, nc)
			if gone := requireDropped(t, nc, 10*time.Second).Sub(dialed); gone < idle/2 {
				t.Fatalf("disconnected %v after the dial, before half the %v deadline", gone, idle)
			}
			requireRecovered(t, ws, svc, base)
		})
	}

	t.Run("client that stops reading", func(t *testing.T) {
		base := runtime.NumGoroutine()
		dialed := time.Now()
		nc := dialRaw(t, ws)
		// Pipeline pings and never read: the answers fill the loopback
		// buffers, the server blocks writing, stops reading, and then
		// this client's writes block too. The first write that blocks
		// (or finds the connection gone) starts the stall.
		burst := bytes.Repeat(ping, 2048)
		var stalled time.Time
		for stalled.IsZero() {
			if time.Since(dialed) > time.Minute {
				t.Fatal("client writes never blocked")
			}
			begin := time.Now()
			nc.SetWriteDeadline(begin.Add(idle / 4))
			if _, err := nc.Write(burst); err != nil {
				stalled = begin
			}
		}
		if !waitFor(10*time.Second, func() bool { return trackedConns(ws) == 0 }) {
			t.Fatalf("non-reading client still connected %v after its writes blocked", time.Since(stalled))
		}
		if gone := time.Since(dialed); gone < idle/2 {
			t.Fatalf("disconnected %v after the dial, before half the %v deadline", gone, idle)
		}
		requireRecovered(t, ws, svc, base)
	})
}

// TestWireAbuseRecovery is the abuse matrix: each case misbehaves on a
// fresh server, checks the server's immediate reaction, and then
// requires the server back at baseline within 5 s (requireRecovered).
func TestWireAbuseRecovery(t *testing.T) {
	cases := []struct {
		name  string
		abuse func(t *testing.T, ws *WireServer, svc *Service)
	}{
		{"idle connections cost one goroutine each", func(t *testing.T, ws *WireServer, _ *Service) {
			before := connGoroutines()
			conns := make([]net.Conn, 10)
			for i := range conns {
				conns[i] = dialRaw(t, ws)
			}
			if !waitFor(5*time.Second, func() bool { return trackedConns(ws) == len(conns) }) {
				t.Fatalf("server tracks %d of %d connections", trackedConns(ws), len(conns))
			}
			if !waitFor(5*time.Second, func() bool { return connGoroutines()-before == len(conns) }) {
				t.Fatalf("%d idle connections run %d goroutines, want %d", len(conns), connGoroutines()-before, len(conns))
			}
			for _, nc := range conns {
				nc.Close()
			}
		}},
		{"mid-frame disconnect", func(t *testing.T, ws *WireServer, _ *Service) {
			nc := dialRaw(t, ws)
			batch := wire.AppendBatchReq(nil, 0, make([]wire.Pair, 64))
			frame := wire.AppendFrame(nil, wire.OpBatch, 0, 1, batch)
			if _, err := nc.Write(frame[:len(frame)/2]); err != nil {
				t.Fatal(err)
			}
			nc.Close()
		}},
		{"oversize frame", func(t *testing.T, ws *WireServer, _ *Service) {
			nc := dialRaw(t, ws)
			var hdr [wire.HeaderSize]byte
			wire.PutHeader(hdr[:], wire.Header{Major: wire.Major, Minor: wire.Minor, Op: wire.OpBatch, ReqID: 3, Len: wire.DefaultMaxPayload + 1})
			if _, err := nc.Write(hdr[:]); err != nil {
				t.Fatal(err)
			}
			nc.SetReadDeadline(time.Now().Add(5 * time.Second))
			h, payload, _, err := wire.ReadFrame(nc, nil, 0)
			if err != nil || h.Op != wire.OpError || h.ReqID != 3 {
				t.Fatalf("oversize frame answered with %+v, %v", h, err)
			}
			if code, _, err := wire.ParseError(payload); err != nil || code != wire.CodeTooLarge {
				t.Fatalf("refusal code %v (%v), want CodeTooLarge", code, err)
			}
			requireDropped(t, nc, 5*time.Second)
		}},
		{"bad magic", func(t *testing.T, ws *WireServer, _ *Service) {
			nc := dialRaw(t, ws)
			if _, err := nc.Write(bytes.Repeat([]byte("X"), 2*wire.HeaderSize)); err != nil {
				t.Fatal(err)
			}
			requireDropped(t, nc, 5*time.Second)
		}},
		{"shutdown during pipelined batches", func(t *testing.T, ws *WireServer, svc *Service) {
			nc := dialRaw(t, ws)
			pairs := make([]wire.Pair, MaxBatchPairs)
			for i := range pairs {
				pairs[i] = wire.Pair{Src: uint32(i % 64), Dst: uint32(63 - i%64)}
			}
			batch := wire.AppendBatchReq(nil, 0, pairs)
			const n = 32
			go func() {
				var frame []byte
				for i := 0; i < n; i++ {
					frame = wire.AppendFrame(frame[:0], wire.OpBatch, 0, uint64(i+1), batch)
					if _, err := nc.Write(frame); err != nil {
						return
					}
				}
			}()
			shut := make(chan error, 1)
			var buf []byte
			for i := 0; i < n; i++ {
				nc.SetReadDeadline(time.Now().Add(10 * time.Second))
				h, payload, nbuf, err := wire.ReadFrame(nc, buf, 0)
				buf = nbuf
				if err != nil {
					t.Fatalf("answer %d: %v", i, err)
				}
				if h.ReqID != uint64(i+1) {
					t.Fatalf("answer %d carries request ID %d; order broken", i, h.ReqID)
				}
				switch h.Op {
				case wire.OpBatch:
				case wire.OpError:
					if code, _, err := wire.ParseError(payload); err != nil || code != wire.CodeDraining {
						t.Fatalf("answer %d refused with %v (%v), want CodeDraining", i, code, err)
					}
				default:
					t.Fatalf("answer %d is %v", i, h.Op)
				}
				if i == 0 {
					go func() {
						ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
						defer cancel()
						shut <- svc.Shutdown(ctx)
					}()
				}
			}
			if err := <-shut; err != nil {
				t.Fatalf("shutdown: %v", err)
			}
			nc.Close()
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			fl := obs.NewFlightRecorder(obs.FlightOptions{Records: 256})
			svc := newService(t, topo.MustCube(6), Options{Flight: fl})
			ws := listenWireIdle(t, svc, wireIdleTimeout)
			base := runtime.NumGoroutine()
			c.abuse(t, ws, svc)
			requireRecovered(t, ws, svc, base)
		})
	}

	// With the connection cap at 2 and two connections held, a third
	// client waits in the listen backlog: its ping stays unanswered and
	// no third connection goroutine starts until one of the two closes.
	t.Run("connections beyond the cap wait", func(t *testing.T) {
		fl := obs.NewFlightRecorder(obs.FlightOptions{Records: 256})
		svc := newService(t, topo.MustCube(6), Options{Flight: fl})
		ws := listenWireCapped(t, svc, 2)
		base, before := runtime.NumGoroutine(), connGoroutines()
		held := []net.Conn{dialRaw(t, ws), dialRaw(t, ws)}
		if !waitFor(5*time.Second, func() bool { return trackedConns(ws) == len(held) }) {
			t.Fatalf("server tracks %d of %d connections", trackedConns(ws), len(held))
		}
		third := dialRaw(t, ws)
		if _, err := third.Write(wire.AppendFrame(nil, wire.OpPing, 0, 7, nil)); err != nil {
			t.Fatal(err)
		}
		third.SetReadDeadline(time.Now().Add(300 * time.Millisecond))
		var ne net.Error
		if h, _, _, err := wire.ReadFrame(third, nil, 0); !errors.As(err, &ne) || !ne.Timeout() {
			t.Fatalf("ping beyond the cap: %+v, %v; want no answer", h, err)
		}
		if n := connGoroutines() - before; n > len(held) {
			t.Fatalf("%d connection goroutines under a cap of %d", n, len(held))
		}
		held[0].Close()
		third.SetReadDeadline(time.Now().Add(5 * time.Second))
		if h, _, _, err := wire.ReadFrame(third, nil, 0); err != nil || h.Op != wire.OpPing || h.ReqID != 7 {
			t.Fatalf("ping after a slot freed: %+v, %v", h, err)
		}
		held[1].Close()
		third.Close()
		requireRecovered(t, ws, svc, base)
	})
}

// TestWireCloseAtCap checks that Close returns while the accept loop
// waits for a free connection slot.
func TestWireCloseAtCap(t *testing.T) {
	svc := newService(t, topo.MustCube(6), Options{})
	ws := listenWireCapped(t, svc, 1)
	dialRaw(t, ws)
	if !waitFor(5*time.Second, func() bool { return trackedConns(ws) == 1 }) {
		t.Fatalf("server tracks %d connections, want 1", trackedConns(ws))
	}
	closed := make(chan error, 1)
	go func() { closed <- ws.Close() }()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close blocked with the accept loop waiting for a slot")
	}
}

// TestWireServerFaultDeltaOrder pins that pipelined OpFaultDelta frames
// on one connection reach the apply queue in the order sent: after
// alternating fail and recover events per node, each node ends in the
// state of its last accepted event.
func TestWireServerFaultDeltaOrder(t *testing.T) {
	svc, ws := newWireServer(t, Options{}, WireOptions{})
	nc := dialRaw(t, ws)
	const nodes, rounds = 16, 8
	var events []wire.FaultReq
	var stream []byte
	for r := 0; r < rounds; r++ {
		for v := uint32(0); v < nodes; v++ {
			for _, k := range []faults.DeltaKind{faults.DeltaFailNode, faults.DeltaRecoverNode} {
				if r == rounds-1 && v%2 == 1 && k == faults.DeltaRecoverNode {
					continue // odd nodes end failed
				}
				ev := wire.FaultReq{Kind: uint8(k), A: v}
				events = append(events, ev)
				stream = wire.AppendFrame(stream, wire.OpFaultDelta, 0, uint64(len(events)), wire.AppendFaultReq(nil, ev))
			}
		}
	}
	go nc.Write(stream)

	last := map[uint32]faults.DeltaKind{}
	var buf []byte
	for i := range events {
		nc.SetReadDeadline(time.Now().Add(10 * time.Second))
		h, payload, nbuf, err := wire.ReadFrame(nc, buf, 0)
		buf = nbuf
		if err != nil {
			t.Fatalf("answer %d: %v", i, err)
		}
		if h.ReqID != uint64(i+1) {
			t.Fatalf("answer %d carries request ID %d", i, h.ReqID)
		}
		if h.Op == wire.OpError {
			if code, _, err := wire.ParseError(payload); err != nil || code != wire.CodeBacklog {
				t.Fatalf("event %d refused with %v (%v), want CodeBacklog", i, code, err)
			}
			continue
		}
		last[events[i].A] = faults.DeltaKind(events[i].Kind)
	}
	svc.Flush()
	set := svc.CurrentFaults()
	for v, k := range last {
		if want := k == faults.DeltaFailNode; set.NodeFaulty(topo.NodeID(v)) != want {
			t.Errorf("node %d faulty = %v, but its last accepted event is %v", v, !want, k)
		}
	}
}

// TestWireServerFlushesBeforePartialFrame pins the flush rule: answers
// wait in the server's buffer only while the whole next frame is
// already buffered, so a client that sent three frames and part of a
// fourth reads all three answers before it sends the rest.
func TestWireServerFlushesBeforePartialFrame(t *testing.T) {
	_, ws := newWireServer(t, Options{}, WireOptions{})
	nc := dialRaw(t, ws)
	var stream []byte
	for id := uint64(1); id <= 4; id++ {
		stream = wire.AppendFrame(stream, wire.OpPing, 0, id, nil)
	}
	split := 3*wire.HeaderSize + wire.HeaderSize/2
	if _, err := nc.Write(stream[:split]); err != nil {
		t.Fatal(err)
	}
	var buf []byte
	nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	for id := uint64(1); id <= 3; id++ {
		h, _, nbuf, err := wire.ReadFrame(nc, buf, 0)
		buf = nbuf
		if err != nil || h.ReqID != id {
			t.Fatalf("answer %d before the fourth frame is complete: %+v, %v", id, h, err)
		}
	}
	if _, err := nc.Write(stream[split:]); err != nil {
		t.Fatal(err)
	}
	if h, _, _, err := wire.ReadFrame(nc, buf, 0); err != nil || h.ReqID != 4 {
		t.Fatalf("fourth answer: %+v, %v", h, err)
	}
}
