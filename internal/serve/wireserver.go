package serve

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"slices"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/topo"
	"repro/internal/wire"
)

// The binary data plane. Each accepted connection is served by one
// goroutine, which loops: read a frame through a bufio.Reader, execute
// it, append the answer to a bufio.Writer, and flush unless the whole
// next frame is already buffered, so a pipelining client costs one
// read and one write syscall per burst rather than per frame.
// Execution answers against the lock-free snapshot with the same
// admission, drain and flight sequence the HTTP handlers get from
// RouteCtx and BatchUnicastCtx — deadline budgets re-armed from the
// frame, GCRA admission, drain awareness — but decides each pair at the
// source (Snapshot.Summary, or core.Router.Summaries for a batch,
// which counts the frame's answers in one publish) instead of walking
// it: a wire answer carries no path, and on a served snapshot, always
// a fixpoint, the source's decision fixes the rest (Theorem 3). A
// batch is answered on the connection's goroutine in two passes over
// its pairs: one validates and decodes them into the requests
// Summaries decides, the other appends one record per answer to the
// response frame, which wire.AppendBatchRespFrame opens. One answer in
// summaryCheckEvery is also walked and compared, so a broken level
// invariant stays visible.
//
// Answers leave in request order because frames run one at a time, and
// a client that pipelines faster than the server routes is held back
// by the kernel. The price is head-of-line blocking inside one
// connection: a 4096-pair batch at Q20 holds up the frames behind it
// for about 0.5 ms, so callers that want frames run side by side open
// more connections, as the pooling client and the coalescer do. Before
// each frame's header is read the connection's deadline is set
// wireIdleTimeout ahead; it bounds both that frame's arrival and the
// write of its answer, so a client that goes silent, stalls mid-frame
// or stops reading is disconnected. At most wireMaxConns connections
// are served at once.
//
// Refusals map to typed error frames one-to-one with the HTTP status
// taxonomy: ErrOverload→CodeOverload(429), ErrBacklog→CodeBacklog,
// ErrDraining/ErrClosed→CodeDraining(503), deadline→CodeDeadline(504),
// cancellation→CodeCanceled(499). Version mismatches answer with
// CodeVersion and keep the connection alive — framing is intact, only
// the semantics are refused — which is the clean-degrade contract the
// cross-version compat tests pin.

// MaxBatchPairs is the limit on the pairs of one batch request, shared
// by both serving surfaces: the wire server refuses a larger OpBatch
// frame with CodeTooLarge, and slserve's HTTP /batch answers 413
// Request Entity Too Large.
const MaxBatchPairs = 4096

// wireIdleTimeout is how long a connection may take to deliver one
// frame and take its answer; it equals slserve's HTTP idle timeout.
const wireIdleTimeout = 2 * time.Minute

// wireMaxConns caps the connections a WireServer serves at once. Each
// holds 64 KiB of bufio buffers and a frame buffer that keeps the size
// of the largest frame it has read, up to wire.DefaultMaxPayload
// (1 MiB), so at the cap they hold at most 64 MiB of bufio buffers and
// 1 GiB of frame buffers. The accept loop takes a slot before it
// accepts, so clients beyond the cap wait in the kernel's listen
// backlog, not in server memory.
const wireMaxConns = 1024

// WireOptions tune a WireServer. Every server accepts request payloads
// of up to wire.DefaultMaxPayload bytes and batches of up to
// MaxBatchPairs.
type WireOptions struct {
	// Registry receives the wire_* metrics (nil disables).
	Registry *obs.Registry
}

// WireServer serves the binary protocol for one Service. Close stops
// the accept loop and every connection; the Service itself is not
// closed (it may still be serving HTTP).
type WireServer struct {
	svc  *Service
	ln   net.Listener
	idle time.Duration
	// requireMinor refuses clients whose header minor version is below
	// it, and is the minor the server advertises when it exceeds the
	// package's own. Only tests set it, to model a future server that
	// has dropped old-minor support.
	requireMinor uint8

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup
	// slots holds one token per connection being served; done is
	// closed by Close to release an accept loop waiting for a slot.
	slots chan struct{}
	done  chan struct{}

	mConns    *obs.Gauge
	mAccepted *obs.Counter
	mFrames   *obs.Counter
	mErrors   *obs.Counter
}

// NewWireServer starts serving the binary protocol on ln. It returns
// immediately; Close (or closing ln) stops it.
func NewWireServer(svc *Service, ln net.Listener, opts WireOptions) *WireServer {
	return serveWire(svc, ln, opts, wireIdleTimeout, wireMaxConns, 0)
}

// serveWire is NewWireServer with the per-frame connection deadline,
// the connection cap and the lowest client minor version accepted as
// parameters, so tests can shrink the first two and model a future
// server with the third.
func serveWire(svc *Service, ln net.Listener, opts WireOptions, idle time.Duration, maxConns int, requireMinor uint8) *WireServer {
	ws := &WireServer{
		svc:          svc,
		ln:           ln,
		idle:         idle,
		requireMinor: requireMinor,
		conns:        map[net.Conn]struct{}{},
		slots:        make(chan struct{}, maxConns),
		done:         make(chan struct{}),
	}
	r := opts.Registry
	ws.mConns = r.Gauge(obs.MetricWireConns)
	ws.mAccepted = r.Counter(obs.MetricWireAccepted)
	ws.mFrames = r.Counter(obs.MetricWireFrames)
	ws.mErrors = r.Counter(obs.MetricWireErrorFrames)
	ws.wg.Add(1)
	go ws.acceptLoop()
	return ws
}

// ListenWire listens on addr (e.g. "127.0.0.1:9090") and serves the
// binary protocol there.
func ListenWire(svc *Service, addr string, opts WireOptions) (*WireServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	return NewWireServer(svc, ln, opts), nil
}

// Addr returns the bound listen address (useful with ":0").
func (ws *WireServer) Addr() string { return ws.ln.Addr().String() }

// Close stops accepting, closes every live connection, and waits for
// each connection's goroutine to exit. A frame being executed finishes
// first; its answer is lost with the connection. Idempotent.
func (ws *WireServer) Close() error {
	ws.mu.Lock()
	if ws.closed {
		ws.mu.Unlock()
		ws.wg.Wait()
		return nil
	}
	ws.closed = true
	close(ws.done)
	conns := make([]net.Conn, 0, len(ws.conns))
	for c := range ws.conns {
		conns = append(conns, c)
	}
	ws.mu.Unlock()
	err := ws.ln.Close()
	for _, c := range conns {
		_ = c.Close()
	}
	ws.wg.Wait()
	return err
}

func (ws *WireServer) acceptLoop() {
	defer ws.wg.Done()
	for {
		select {
		case ws.slots <- struct{}{}:
		case <-ws.done:
			return
		}
		nc, err := ws.ln.Accept()
		if err != nil {
			return
		}
		ws.mu.Lock()
		if ws.closed {
			ws.mu.Unlock()
			_ = nc.Close()
			return
		}
		ws.conns[nc] = struct{}{}
		ws.mu.Unlock()
		ws.mAccepted.Inc()
		ws.mConns.Add(1)
		ws.wg.Add(1)
		go ws.serveConn(nc)
	}
}

// serveConn reads, executes and answers nc's frames one at a time
// until the client leaves, breaks framing or misses a deadline.
func (ws *WireServer) serveConn(nc net.Conn) {
	defer ws.wg.Done()
	defer func() {
		ws.mu.Lock()
		delete(ws.conns, nc)
		ws.mu.Unlock()
		ws.mConns.Add(-1)
		_ = nc.Close()
		<-ws.slots
	}()
	if tc, ok := nc.(*net.TCPConn); ok {
		_ = tc.SetNoDelay(true)
	}
	br := bufio.NewReaderSize(nc, 32<<10)
	bw := bufio.NewWriterSize(nc, 32<<10)
	// buf holds the frame being executed.
	var (
		buf []byte
		cs  connState
	)
	for {
		// SetDeadline fails only on a closed connection, which the
		// read below reports.
		_ = nc.SetDeadline(time.Now().Add(ws.idle))
		hdr, payload, nbuf, err := wire.ReadFrame(br, buf, wire.DefaultMaxPayload)
		buf = nbuf
		if err != nil {
			if errors.Is(err, wire.ErrTooLarge) {
				// Framing itself is intact but the payload was refused
				// unread; the stream position is lost, so answer and
				// drop the connection. It closes either way, so write
				// errors change nothing.
				ws.mErrors.Inc()
				frame := errFrame(hdr.ReqID, wire.CodeTooLarge, err.Error())
				_, _ = bw.Write(frame)
				wire.PutBuf(frame)
				_ = bw.Flush()
			}
			return
		}
		ws.mFrames.Inc()
		var frame []byte
		switch {
		case hdr.Major != wire.Major, hdr.Minor < ws.requireMinor, hdr.Minor > ws.advertisedMinor():
			ws.mErrors.Inc()
			frame = errFrame(hdr.ReqID, wire.CodeVersion, fmt.Sprintf("server speaks v%d.%d", wire.Major, ws.advertisedMinor()))
		default:
			frame = ws.execute(hdr, payload, &cs)
		}
		_, err = bw.Write(frame)
		wire.PutBuf(frame)
		if err != nil {
			return
		}
		if !nextFrameBuffered(br) && bw.Flush() != nil {
			return
		}
	}
}

// nextFrameBuffered reports whether br already holds the whole next
// frame, in which case the answers written so far can wait for its
// answer and leave in one write. A partial frame, a bad header or an
// empty buffer means the client may be waiting on those answers.
func nextFrameBuffered(br *bufio.Reader) bool {
	n := br.Buffered()
	if n < wire.HeaderSize {
		return false
	}
	b, _ := br.Peek(wire.HeaderSize)
	h, err := wire.ParseHeader(b)
	return err == nil && int64(h.Len) <= int64(n-wire.HeaderSize)
}

// advertisedMinor is the minor version the server claims: its own, or
// requireMinor when that models a newer server.
func (ws *WireServer) advertisedMinor() uint8 {
	return max(ws.requireMinor, wire.Minor)
}

// errFrame encodes a typed error response.
func errFrame(reqID uint64, code wire.ErrCode, detail string) []byte {
	payload := wire.AppendError(wire.GetBuf(), code, detail)
	frame := wire.AppendFrame(wire.GetBuf(), wire.OpError, wire.FlagResponse, reqID, payload)
	wire.PutBuf(payload)
	return frame
}

// wireCodes is the typed frame code of each refusal class (errClass).
var wireCodes = [...]wire.ErrCode{
	obs.ErrClassOverload: wire.CodeOverload,
	obs.ErrClassBacklog:  wire.CodeBacklog,
	obs.ErrClassDeadline: wire.CodeDeadline,
	obs.ErrClassCanceled: wire.CodeCanceled,
	obs.ErrClassDraining: wire.CodeDraining,
}

// wireErrCode maps a serving-path error to the typed frame code the
// HTTP layer would have mapped to a status: the code of its flight
// class, and CodeInternal for a class with none.
func wireErrCode(err error) wire.ErrCode {
	if c := errClass(err); int(c) < len(wireCodes) && wireCodes[c] != 0 {
		return wireCodes[c]
	}
	return wire.CodeInternal
}

// budgetCtx re-arms a request's deadline budget as a context.
func budgetCtx(deadlineUS uint32) (context.Context, context.CancelFunc) {
	if deadlineUS == 0 {
		return context.Background(), func() {}
	}
	return context.WithTimeout(context.Background(), time.Duration(deadlineUS)*time.Microsecond)
}

// connState is what a connection keeps between frames: the batch
// scratch slices, the decoded requests and their answers, which
// amortize a batch across the connection's lifetime, and the sampler
// that picks the answers to check.
type connState struct {
	reqs  []Request
	sums  []core.Summary
	check sampler
}

// execute runs one request frame and returns its encoded response
// frame, taken from the wire buffer pool. body is the request payload;
// it may alias the read buffer, and nothing here keeps it past the
// call.
func (ws *WireServer) execute(hdr wire.Header, body []byte, cs *connState) []byte {
	id := hdr.ReqID
	switch hdr.Op {
	case wire.OpPing:
		payload := wire.AppendPingResp(wire.GetBuf(), wire.PingResp{Major: wire.Major, Minor: ws.advertisedMinor()})
		frame := wire.AppendFrame(wire.GetBuf(), wire.OpPing, wire.FlagResponse, id, payload)
		wire.PutBuf(payload)
		return frame

	case wire.OpUnicast:
		req, err := wire.ParseUnicastReq(body)
		if err != nil {
			ws.mErrors.Inc()
			return errFrame(id, wire.CodeBadRequest, err.Error())
		}
		a, refused := ws.decide(id, req.Src, req.Dst, req.DeadlineUS, cs)
		if refused != nil {
			return refused
		}
		payload := wire.AppendUnicastResp(wire.GetBuf(), wire.UnicastResp{
			Gen:      a.Gen,
			FlightID: a.FlightID,
			Route:    routeInfoOf(a.Summary),
		})
		frame := wire.AppendFrame(wire.GetBuf(), wire.OpUnicast, wire.FlagResponse, id, payload)
		wire.PutBuf(payload)
		return frame

	case wire.OpBatch:
		// Two passes over the pairs: validate and decode them straight
		// into the requests Summaries decides, then encode one answer
		// per pair into the response frame. The limit is checked before
		// any pair is decoded, so an oversize frame leaves the
		// connection's scratch at its size.
		deadline, n, err := wire.ParseBatchReqHeader(body, MaxBatchPairs)
		if err != nil {
			ws.mErrors.Inc()
			code := wire.CodeBadRequest
			if errors.Is(err, wire.ErrTooLarge) {
				code = wire.CodeTooLarge
			}
			return errFrame(id, code, err.Error())
		}
		nodes := uint32(ws.svc.t.Nodes())
		rq := slices.Grow(cs.reqs[:0], n)[:n]
		cs.reqs = rq
		for i := range rq {
			q := wire.BatchReqPair(body, i)
			if q.Src >= nodes || q.Dst >= nodes {
				ws.mErrors.Inc()
				return errFrame(id, wire.CodeBadRequest, "node outside topology")
			}
			rq[i] = Request{Src: topo.NodeID(q.Src), Dst: topo.NodeID(q.Dst)}
		}
		ctx, cancel := budgetCtx(deadline)
		sums, gen, err := ws.svc.batchAtSource(ctx, rq, cs.sums[:0], &cs.check)
		cancel()
		cs.sums = sums
		if err != nil {
			ws.mErrors.Inc()
			return errFrame(id, wireErrCode(err), "")
		}
		frame := wire.AppendBatchRespFrame(wire.GetBuf(), id, gen, len(sums))
		for _, sum := range sums {
			frame = wire.AppendRouteInfo(frame, routeInfoOf(sum))
		}
		return frame

	case wire.OpFeasibility:
		req, err := wire.ParseFeasReq(body)
		if err != nil {
			ws.mErrors.Inc()
			return errFrame(id, wire.CodeBadRequest, err.Error())
		}
		// A feasibility question is a unicast decided at the source; the
		// request carries no deadline budget.
		a, refused := ws.decide(id, req.Src, req.Dst, 0, cs)
		if refused != nil {
			return refused
		}
		payload := wire.AppendFeasResp(wire.GetBuf(), wire.FeasResp{Cond: uint8(a.Condition), Outcome: uint8(a.Outcome)})
		frame := wire.AppendFrame(wire.GetBuf(), wire.OpFeasibility, wire.FlagResponse, id, payload)
		wire.PutBuf(payload)
		return frame

	case wire.OpFaultDelta:
		req, err := wire.ParseFaultReq(body)
		if err != nil {
			ws.mErrors.Inc()
			return errFrame(id, wire.CodeBadRequest, err.Error())
		}
		ev := faults.ChurnEvent{Kind: faults.DeltaKind(req.Kind), A: topo.NodeID(req.A), B: topo.NodeID(req.B)}
		// TryApply, unlike HTTP /fault, which blocks on a full queue:
		// churn never blocks the data plane, so a full queue answers
		// with typed backpressure (CodeBacklog).
		if err := ws.svc.TryApply(ev); err != nil {
			ws.mErrors.Inc()
			code := wireErrCode(err)
			if code == wire.CodeInternal {
				// Validation failures (bad kind, node out of range,
				// non-adjacent link) are the client's fault.
				code = wire.CodeBadRequest
			}
			return errFrame(id, code, err.Error())
		}
		payload := wire.AppendFaultResp(wire.GetBuf(), wire.FaultResp{
			Gen:        ws.svc.Generation(),
			QueueDepth: uint32(ws.svc.QueueDepth()),
		})
		frame := wire.AppendFrame(wire.GetBuf(), wire.OpFaultDelta, wire.FlagResponse, id, payload)
		wire.PutBuf(payload)
		return frame

	default:
		ws.mErrors.Inc()
		return errFrame(id, wire.CodeUnknownOp, hdr.Op.String())
	}
}

// decide answers one pair at the source through routeCtx, the sequence
// OpUnicast and OpFeasibility share: the endpoint check, admission
// under a deadline budget of deadlineUS (0 for none), and a walk and
// compare for the answers cs's sampler picks. A refused pair returns
// the error frame for request id instead.
func (ws *WireServer) decide(id uint64, src, dst, deadlineUS uint32, cs *connState) (answer, []byte) {
	if !ws.svc.t.Contains(topo.NodeID(src)) || !ws.svc.t.Contains(topo.NodeID(dst)) {
		ws.mErrors.Inc()
		return answer{}, errFrame(id, wire.CodeBadRequest, "node outside topology")
	}
	mode := atSource
	if cs.check.next() {
		mode = atSourceChecked
	}
	ctx, cancel := budgetCtx(deadlineUS)
	_, a, err := ws.svc.routeCtx(ctx, topo.NodeID(src), topo.NodeID(dst), mode)
	cancel()
	if err != nil {
		ws.mErrors.Inc()
		return answer{}, errFrame(id, wireErrCode(err), "")
	}
	return a, nil
}

// routeInfoOf compacts an answer for the wire (clamped to the field
// widths; a hypercube route can't exceed them anyway).
func routeInfoOf(sum core.Summary) wire.RouteInfo {
	return wire.RouteInfo{
		Outcome: uint8(sum.Outcome),
		Cond:    uint8(sum.Condition),
		Hamming: uint16(sum.Hamming),
		Hops:    uint16(sum.Hops),
	}
}
