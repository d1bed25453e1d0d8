package wire

import (
	"context"
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// fakeServer is a minimal hand-rolled wire peer for client unit tests:
// it reads frames off every accepted connection and answers each via
// the handler — out of order when the handler says so, with error
// frames, or not at all. The real server lives in internal/serve; this
// one exists so the client's demultiplexer is tested against behaviors
// a correct server never exhibits.
type fakeServer struct {
	ln     net.Listener
	wg     sync.WaitGroup
	handle func(h Header, payload []byte) (Op, []byte) // nil reply = drop
}

func newFakeServer(t *testing.T, handle func(h Header, payload []byte) (Op, []byte)) *fakeServer {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fs := &fakeServer{ln: ln, handle: handle}
	fs.wg.Add(1)
	go fs.acceptLoop()
	t.Cleanup(fs.close)
	return fs
}

func (fs *fakeServer) close() {
	_ = fs.ln.Close()
	fs.wg.Wait()
}

func (fs *fakeServer) acceptLoop() {
	defer fs.wg.Done()
	for {
		nc, err := fs.ln.Accept()
		if err != nil {
			return
		}
		fs.wg.Add(1)
		go func() {
			defer fs.wg.Done()
			defer nc.Close()
			var buf []byte
			var wmu sync.Mutex
			for {
				h, payload, nbuf, err := ReadFrame(nc, buf, 0)
				buf = nbuf
				if err != nil {
					return
				}
				// Handle each frame concurrently so client pipelining is
				// observable at the handler (and answers can reorder).
				p := append([]byte(nil), payload...)
				fs.wg.Add(1)
				go func() {
					defer fs.wg.Done()
					op, resp := fs.handle(h, p)
					if resp == nil && op == 0 {
						return // drop: simulate a lost answer
					}
					frame := AppendFrame(nil, op, FlagResponse, h.ReqID, resp)
					wmu.Lock()
					_, _ = nc.Write(frame)
					wmu.Unlock()
				}()
			}
		}()
	}
}

// echoRouter answers every opcode with a well-formed response.
func echoRouter(h Header, payload []byte) (Op, []byte) {
	switch h.Op {
	case OpPing:
		return OpPing, AppendPingResp(nil, PingResp{Major: Major, Minor: Minor})
	case OpUnicast:
		m, err := ParseUnicastReq(payload)
		if err != nil {
			return OpError, AppendError(nil, CodeBadRequest, err.Error())
		}
		return OpUnicast, AppendUnicastResp(nil, UnicastResp{
			Gen: 1, FlightID: h.ReqID,
			Route: RouteInfo{Outcome: 0, Hamming: uint16(m.Src ^ m.Dst), Hops: uint16(m.Src ^ m.Dst)},
		})
	case OpBatch:
		_, pairs, err := ParseBatchReq(payload, nil, DefaultMaxPayload)
		if err != nil {
			return OpError, AppendError(nil, CodeBadRequest, err.Error())
		}
		routes := make([]RouteInfo, len(pairs))
		for i, p := range pairs {
			routes[i] = RouteInfo{Hamming: uint16(p.Src ^ p.Dst)}
		}
		return OpBatch, AppendBatchResp(nil, 1, routes)
	case OpFeasibility:
		return OpFeasibility, AppendFeasResp(nil, FeasResp{Cond: 1})
	case OpFaultDelta:
		return OpFaultDelta, AppendFaultResp(nil, FaultResp{Gen: 2, QueueDepth: 1})
	default:
		return OpError, AppendError(nil, CodeUnknownOp, "")
	}
}

func TestClientRoundTrips(t *testing.T) {
	fs := newFakeServer(t, echoRouter)
	c, err := Dial(fs.ln.Addr().String(), ClientOptions{Conns: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()

	pr, err := c.Ping(ctx)
	if err != nil || pr.Major != Major {
		t.Fatalf("ping: %+v, %v", pr, err)
	}
	ur, err := c.Unicast(ctx, 3, 5)
	if err != nil || ur.Route.Hamming != 6 {
		t.Fatalf("unicast: %+v, %v", ur, err)
	}
	gen, routes, err := c.Batch(ctx, []Pair{{1, 2}, {4, 4}}, nil)
	if err != nil || gen != 1 || len(routes) != 2 || routes[0].Hamming != 3 || routes[1].Hamming != 0 {
		t.Fatalf("batch: gen %d, %+v, %v", gen, routes, err)
	}
	fr, err := c.Feasibility(ctx, 0, 1)
	if err != nil || fr.Cond != 1 {
		t.Fatalf("feasibility: %+v, %v", fr, err)
	}
	dr, err := c.Fault(ctx, FaultReq{Kind: 1, A: 9})
	if err != nil || dr.Gen != 2 {
		t.Fatalf("fault: %+v, %v", dr, err)
	}
}

func TestClientPipelinesConcurrentRequests(t *testing.T) {
	var inflight, peak atomic.Int64
	fs := newFakeServer(t, func(h Header, payload []byte) (Op, []byte) {
		cur := inflight.Add(1)
		for {
			p := peak.Load()
			if cur <= p || peak.CompareAndSwap(p, cur) {
				break
			}
		}
		time.Sleep(2 * time.Millisecond) // hold so requests overlap
		inflight.Add(-1)
		return echoRouter(h, payload)
	})
	c, err := Dial(fs.ln.Addr().String(), ClientOptions{Conns: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const n = 16
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = c.Unicast(context.Background(), uint32(i), uint32(i+1))
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	if peak.Load() < 2 {
		t.Fatalf("peak in-flight %d on one connection; requests did not pipeline", peak.Load())
	}
}

func TestClientTypedErrorFrames(t *testing.T) {
	fs := newFakeServer(t, func(h Header, payload []byte) (Op, []byte) {
		return OpError, AppendError(nil, CodeOverload, "shed by admission")
	})
	c, err := Dial(fs.ln.Addr().String(), ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_, err = c.Unicast(context.Background(), 1, 2)
	if !errors.Is(err, ErrOverload) {
		t.Fatalf("got %v, want ErrOverload", err)
	}
}

func TestClientVersionRefusal(t *testing.T) {
	// A server from the future refuses v1 frames with CodeVersion; the
	// client must degrade to the typed sentinel, not a stream error.
	fs := newFakeServer(t, func(h Header, payload []byte) (Op, []byte) {
		return OpError, AppendError(nil, CodeVersion, "server speaks 2.0")
	})
	c, err := Dial(fs.ln.Addr().String(), ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Ping(context.Background()); !errors.Is(err, ErrVersion) {
		t.Fatalf("got %v, want ErrVersion", err)
	}
	// The connection survives the refusal: a second call still errors
	// cleanly rather than hitting a torn stream.
	if _, err := c.Unicast(context.Background(), 0, 1); !errors.Is(err, ErrVersion) {
		t.Fatalf("second call: got %v, want ErrVersion", err)
	}
}

func TestClientDeadline(t *testing.T) {
	release := make(chan struct{})
	fs := newFakeServer(t, func(h Header, payload []byte) (Op, []byte) {
		<-release
		return echoRouter(h, payload)
	})
	c, err := Dial(fs.ln.Addr().String(), ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := c.Unicast(ctx, 1, 2); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("got %v, want DeadlineExceeded", err)
	}
	close(release)
	// The late answer is dropped by the demux; a fresh request works.
	if _, err := c.Unicast(context.Background(), 1, 2); err != nil {
		t.Fatalf("post-deadline request: %v", err)
	}
}

func TestClientClosed(t *testing.T) {
	fs := newFakeServer(t, echoRouter)
	c, err := Dial(fs.ln.Addr().String(), ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	c.Close()
	if _, err := c.Ping(context.Background()); !errors.Is(err, ErrClosed) {
		t.Fatalf("got %v, want ErrClosed", err)
	}
}

func TestClientRedialsDeadConn(t *testing.T) {
	fs := newFakeServer(t, echoRouter)
	c, err := Dial(fs.ln.Addr().String(), ClientOptions{Conns: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Ping(context.Background()); err != nil {
		t.Fatal(err)
	}
	// Kill the live conn server-side; the pool must lazily redial.
	c.mu.Lock()
	cc := c.conns[0]
	c.mu.Unlock()
	cc.close(ErrClosed)
	deadline := time.Now().Add(2 * time.Second)
	for {
		if _, err := c.Ping(context.Background()); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("client never recovered after connection drop")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestCoalescerMergesCalls(t *testing.T) {
	var batchFrames, batchedPairs atomic.Int64
	fs := newFakeServer(t, func(h Header, payload []byte) (Op, []byte) {
		if h.Op == OpBatch {
			batchFrames.Add(1)
			_, pairs, _ := ParseBatchReq(payload, nil, DefaultMaxPayload)
			batchedPairs.Add(int64(len(pairs)))
		}
		return echoRouter(h, payload)
	})
	c, err := Dial(fs.ln.Addr().String(), ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	co := NewCoalescer(c, CoalescerOptions{MaxBatch: 8, MaxDelay: 5 * time.Millisecond})
	defer co.Close()

	const n = 32
	var wg sync.WaitGroup
	var bad atomic.Int64
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			info, gen, err := co.Unicast(context.Background(), uint32(i), uint32(i^1))
			if err != nil || gen != 1 || info.Hamming != 1 {
				bad.Add(1)
			}
		}(i)
	}
	wg.Wait()
	if bad.Load() != 0 {
		t.Fatalf("%d coalesced calls returned wrong results", bad.Load())
	}
	if got := batchedPairs.Load(); got != n {
		t.Fatalf("server saw %d pairs, want %d", got, n)
	}
	if frames := batchFrames.Load(); frames >= n {
		t.Fatalf("%d batch frames for %d calls; nothing coalesced", frames, n)
	}
}

func TestCoalescerClose(t *testing.T) {
	fs := newFakeServer(t, echoRouter)
	c, err := Dial(fs.ln.Addr().String(), ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	co := NewCoalescer(c, CoalescerOptions{MaxBatch: 64, MaxDelay: time.Hour})
	done := make(chan error, 1)
	go func() {
		_, _, err := co.Unicast(context.Background(), 1, 2)
		done <- err
	}()
	// Wait until the pair is enqueued, then Close must flush it.
	deadline := time.Now().Add(2 * time.Second)
	for {
		co.mu.Lock()
		queued := len(co.pairs)
		co.mu.Unlock()
		if queued > 0 || time.Now().After(deadline) {
			break
		}
		time.Sleep(time.Millisecond)
	}
	co.Close()
	if err := <-done; err != nil {
		t.Fatalf("pending call after Close: %v", err)
	}
	if _, _, err := co.Unicast(context.Background(), 3, 4); !errors.Is(err, ErrClosed) {
		t.Fatalf("post-Close call: got %v, want ErrClosed", err)
	}
}
