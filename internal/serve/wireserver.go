package serve

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/topo"
	"repro/internal/wire"
)

// The binary data plane. Each accepted connection runs the pipelined
// loop the protocol was designed for:
//
//	reader ──frames──▶ bounded jobs chan ──▶ N workers ──▶ results chan ──▶ writer
//
// One goroutine reads frames off the socket and tags each with an
// arrival sequence number; the workers decode, route against the
// lock-free snapshot (the same RouteCtx/BatchUnicastCtx hardening the
// HTTP handlers use — deadline budgets re-armed from the frame, GCRA
// admission, drain awareness), and encode the response into a pooled
// buffer; a single writer reorders completed responses by sequence
// number so the client observes strict request order per connection,
// no matter how the workers interleave. The jobs channel is bounded:
// a client that pipelines faster than the workers drain blocks in the
// kernel, not in server memory.
//
// Refusals map to typed error frames one-to-one with the HTTP status
// taxonomy: ErrOverload→CodeOverload(429), ErrBacklog→CodeBacklog,
// ErrDraining/ErrClosed→CodeDraining(503), deadline→CodeDeadline(504),
// cancellation→CodeCanceled(499). Version mismatches answer with
// CodeVersion and keep the connection alive — framing is intact, only
// the semantics are refused — which is the clean-degrade contract the
// cross-version compat tests pin.

// MaxBatchPairs is the default limit on the pairs of one batch request,
// shared by both serving surfaces: the wire server refuses a larger
// OpBatch frame with CodeTooLarge unless WireOptions.MaxBatch says
// otherwise, and slserve's HTTP /batch answers 413 Request Entity Too
// Large.
const MaxBatchPairs = 4096

// WireOptions tune a WireServer. The zero value serves with
// min(GOMAXPROCS, 4) workers and 128 queued frames per connection.
type WireOptions struct {
	// Workers is the per-connection routing worker count (<= 0 means
	// min(GOMAXPROCS, 4)).
	Workers int
	// QueueDepth bounds the per-connection in-flight frame queue
	// (<= 0 means 128). A full queue exerts TCP backpressure.
	QueueDepth int
	// MaxPayload bounds accepted request payloads (<= 0 means
	// wire.DefaultMaxPayload).
	MaxPayload int
	// MaxBatch bounds the pair count of one OpBatch frame (<= 0 means
	// MaxBatchPairs); larger batches are refused with CodeTooLarge.
	MaxBatch int
	// RequireMinor refuses clients whose header minor version is below
	// it, and is what the server "advertises" in ping responses when it
	// exceeds the package's own minor. It models a future server that
	// has dropped old-minor support — the compat tests dial one to
	// prove a v1.0 client degrades to a typed ErrVersion, never a hang
	// or a mis-parse.
	RequireMinor uint8
	// Registry receives the wire_* metrics (nil disables).
	Registry *obs.Registry
}

// WireServer serves the binary protocol for one Service. Close stops
// the accept loop and every connection; the Service itself is not
// closed (it may still be serving HTTP).
type WireServer struct {
	svc  *Service
	ln   net.Listener
	opts WireOptions

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup

	mConns    *obs.Gauge
	mAccepted *obs.Counter
	mFrames   *obs.Counter
	mErrors   *obs.Counter
}

// NewWireServer starts serving the binary protocol on ln. It returns
// immediately; Close (or closing ln) stops it.
func NewWireServer(svc *Service, ln net.Listener, opts WireOptions) *WireServer {
	if opts.Workers <= 0 {
		opts.Workers = runtime.GOMAXPROCS(0)
		if opts.Workers > 4 {
			opts.Workers = 4
		}
	}
	if opts.QueueDepth <= 0 {
		opts.QueueDepth = 128
	}
	if opts.MaxPayload <= 0 {
		opts.MaxPayload = wire.DefaultMaxPayload
	}
	if opts.MaxBatch <= 0 {
		opts.MaxBatch = MaxBatchPairs
	}
	ws := &WireServer{
		svc:   svc,
		ln:    ln,
		opts:  opts,
		conns: map[net.Conn]struct{}{},
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
// the per-connection pipelines to exit. Idempotent.
func (ws *WireServer) Close() error {
	ws.mu.Lock()
	if ws.closed {
		ws.mu.Unlock()
		ws.wg.Wait()
		return nil
	}
	ws.closed = true
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

// wireJob is one framed request traveling reader→worker: seq is the
// arrival order the writer restores, refuse short-circuits execution
// with a typed error frame (version/size refusals decided at read
// time must still flow through the writer to keep ordering).
type wireJob struct {
	seq     uint64
	hdr     wire.Header
	payload []byte // pooled; worker releases
	refuse  wire.ErrCode
	detail  string
}

// wireResult is one encoded response frame traveling worker→writer.
type wireResult struct {
	seq   uint64
	frame []byte // pooled; writer releases after write
}

func (ws *WireServer) serveConn(nc net.Conn) {
	defer ws.wg.Done()
	defer func() {
		ws.mu.Lock()
		delete(ws.conns, nc)
		ws.mu.Unlock()
		ws.mConns.Add(-1)
		_ = nc.Close()
	}()
	if tc, ok := nc.(*net.TCPConn); ok {
		_ = tc.SetNoDelay(true)
	}

	jobs := make(chan wireJob, ws.opts.QueueDepth)
	results := make(chan wireResult, ws.opts.QueueDepth)

	// Workers: decode, execute against the snapshot engine, encode.
	var workerWg sync.WaitGroup
	for w := 0; w < ws.opts.Workers; w++ {
		workerWg.Add(1)
		go func() {
			defer workerWg.Done()
			ws.worker(jobs, results)
		}()
	}
	// Close results once every worker is done, so the writer drains
	// fully and exits.
	go func() {
		workerWg.Wait()
		close(results)
	}()

	// Writer: restore arrival order by sequence number. hold parks
	// responses that completed ahead of an earlier in-flight request.
	var writerWg sync.WaitGroup
	writerWg.Add(1)
	go func() {
		defer writerWg.Done()
		bw := bufio.NewWriterSize(nc, 32<<10)
		hold := map[uint64][]byte{}
		next := uint64(0)
		for res := range results {
			hold[res.seq] = res.frame
			for {
				frame, ok := hold[next]
				if !ok {
					break
				}
				delete(hold, next)
				next++
				if _, err := bw.Write(frame); err != nil {
					wire.PutBuf(frame)
					// The socket is gone; keep draining so workers
					// never block on the results channel.
					continue
				}
				wire.PutBuf(frame)
			}
			if len(results) == 0 {
				// No response immediately behind this one: flush the
				// batch to the wire rather than waiting for more.
				_ = bw.Flush()
			}
		}
		_ = bw.Flush()
		for _, frame := range hold {
			wire.PutBuf(frame)
		}
	}()

	// Reader: frames → jobs, in arrival order.
	var seq uint64
	var buf []byte
	for {
		hdr, payload, nbuf, err := wire.ReadFrame(nc, buf, ws.opts.MaxPayload)
		buf = nbuf
		if err != nil {
			if errors.Is(err, wire.ErrTooLarge) {
				// Framing itself is intact but the payload was refused
				// unread; the stream position is lost, so answer and
				// drop the connection.
				jobs <- wireJob{seq: seq, hdr: hdr, refuse: wire.CodeTooLarge, detail: err.Error()}
				seq++
			}
			break
		}
		ws.mFrames.Inc()
		job := wireJob{seq: seq, hdr: hdr}
		seq++
		switch {
		case hdr.Major != wire.Major, hdr.Minor < ws.opts.RequireMinor, hdr.Minor > ws.advertisedMinor():
			job.refuse = wire.CodeVersion
			job.detail = fmt.Sprintf("server speaks v%d.%d", wire.Major, ws.advertisedMinor())
		default:
			job.payload = append(wire.GetBuf(), payload...)
		}
		jobs <- job
	}
	close(jobs)
	workerWg.Wait()
	writerWg.Wait()
}

// advertisedMinor is the minor version the server claims: its own, or
// RequireMinor when that models a newer server.
func (ws *WireServer) advertisedMinor() uint8 {
	if ws.opts.RequireMinor > wire.Minor {
		return ws.opts.RequireMinor
	}
	return wire.Minor
}

// worker executes jobs and emits encoded response frames.
func (ws *WireServer) worker(jobs <-chan wireJob, results chan<- wireResult) {
	var pairs []wire.Pair
	var routes []wire.RouteInfo
	reqs := make([]Request, 0, 64)
	for job := range jobs {
		frame := ws.execute(&job, &pairs, &routes, &reqs)
		if job.payload != nil {
			wire.PutBuf(job.payload)
		}
		results <- wireResult{seq: job.seq, frame: frame}
	}
}

// errFrame encodes a typed error response.
func errFrame(reqID uint64, code wire.ErrCode, detail string) []byte {
	payload := wire.AppendError(wire.GetBuf(), code, detail)
	frame := wire.AppendFrame(wire.GetBuf(), wire.OpError, wire.FlagResponse, reqID, payload)
	wire.PutBuf(payload)
	return frame
}

// wireErrCode maps a serving-path error to the typed frame code the
// HTTP layer would have mapped to a status.
func wireErrCode(err error) wire.ErrCode {
	switch {
	case errors.Is(err, ErrOverload):
		return wire.CodeOverload
	case errors.Is(err, ErrBacklog):
		return wire.CodeBacklog
	case errors.Is(err, ErrDraining), errors.Is(err, ErrClosed):
		return wire.CodeDraining
	case errors.Is(err, context.DeadlineExceeded):
		return wire.CodeDeadline
	case errors.Is(err, context.Canceled):
		return wire.CodeCanceled
	default:
		return wire.CodeInternal
	}
}

// budgetCtx re-arms a request's deadline budget as a context.
func budgetCtx(deadlineUS uint32) (context.Context, context.CancelFunc) {
	if deadlineUS == 0 {
		return context.Background(), func() {}
	}
	return context.WithTimeout(context.Background(), time.Duration(deadlineUS)*time.Microsecond)
}

// execute runs one job and returns its encoded response frame. The
// scratch slices amortize batch decode/encode across a connection's
// lifetime.
func (ws *WireServer) execute(job *wireJob, pairs *[]wire.Pair, routes *[]wire.RouteInfo, reqs *[]Request) []byte {
	id := job.hdr.ReqID
	if job.refuse != 0 {
		ws.mErrors.Inc()
		return errFrame(id, job.refuse, job.detail)
	}
	switch job.hdr.Op {
	case wire.OpPing:
		payload := wire.AppendPingResp(wire.GetBuf(), wire.PingResp{Major: wire.Major, Minor: ws.advertisedMinor()})
		frame := wire.AppendFrame(wire.GetBuf(), wire.OpPing, wire.FlagResponse, id, payload)
		wire.PutBuf(payload)
		return frame

	case wire.OpUnicast:
		req, err := wire.ParseUnicastReq(job.payload)
		if err != nil {
			ws.mErrors.Inc()
			return errFrame(id, wire.CodeBadRequest, err.Error())
		}
		if !ws.svc.t.Contains(topo.NodeID(req.Src)) || !ws.svc.t.Contains(topo.NodeID(req.Dst)) {
			ws.mErrors.Inc()
			return errFrame(id, wire.CodeBadRequest, "node outside topology")
		}
		ctx, cancel := budgetCtx(req.DeadlineUS)
		r, err := ws.svc.RouteCtx(ctx, topo.NodeID(req.Src), topo.NodeID(req.Dst))
		cancel()
		if err != nil {
			ws.mErrors.Inc()
			return errFrame(id, wireErrCode(err), "")
		}
		payload := wire.AppendUnicastResp(wire.GetBuf(), wire.UnicastResp{
			Gen:      ws.svc.Generation(),
			FlightID: r.FlightID,
			Route:    routeInfoOf(r),
		})
		frame := wire.AppendFrame(wire.GetBuf(), wire.OpUnicast, wire.FlagResponse, id, payload)
		wire.PutBuf(payload)
		return frame

	case wire.OpBatch:
		deadline, ps, err := wire.ParseBatchReq(job.payload, (*pairs)[:0])
		*pairs = ps
		if err != nil {
			ws.mErrors.Inc()
			return errFrame(id, wire.CodeBadRequest, err.Error())
		}
		if len(ps) > ws.opts.MaxBatch {
			ws.mErrors.Inc()
			return errFrame(id, wire.CodeTooLarge, fmt.Sprintf("batch of %d pairs exceeds limit %d", len(ps), ws.opts.MaxBatch))
		}
		rq := (*reqs)[:0]
		for _, q := range ps {
			if !ws.svc.t.Contains(topo.NodeID(q.Src)) || !ws.svc.t.Contains(topo.NodeID(q.Dst)) {
				ws.mErrors.Inc()
				*reqs = rq
				return errFrame(id, wire.CodeBadRequest, "node outside topology")
			}
			rq = append(rq, Request{Src: topo.NodeID(q.Src), Dst: topo.NodeID(q.Dst)})
		}
		*reqs = rq
		ctx, cancel := budgetCtx(deadline)
		rs, err := ws.svc.BatchUnicastCtx(ctx, rq)
		cancel()
		if err != nil {
			ws.mErrors.Inc()
			return errFrame(id, wireErrCode(err), "")
		}
		out := (*routes)[:0]
		for _, r := range rs {
			out = append(out, routeInfoOf(r))
		}
		*routes = out
		payload := wire.AppendBatchResp(wire.GetBuf(), ws.svc.Generation(), out)
		frame := wire.AppendFrame(wire.GetBuf(), wire.OpBatch, wire.FlagResponse, id, payload)
		wire.PutBuf(payload)
		return frame

	case wire.OpFeasibility:
		req, err := wire.ParseFeasReq(job.payload)
		if err != nil {
			ws.mErrors.Inc()
			return errFrame(id, wire.CodeBadRequest, err.Error())
		}
		if !ws.svc.t.Contains(topo.NodeID(req.Src)) || !ws.svc.t.Contains(topo.NodeID(req.Dst)) {
			ws.mErrors.Inc()
			return errFrame(id, wire.CodeBadRequest, "node outside topology")
		}
		cond, out := ws.svc.Feasibility(topo.NodeID(req.Src), topo.NodeID(req.Dst))
		payload := wire.AppendFeasResp(wire.GetBuf(), wire.FeasResp{Cond: uint8(cond), Outcome: uint8(out)})
		frame := wire.AppendFrame(wire.GetBuf(), wire.OpFeasibility, wire.FlagResponse, id, payload)
		wire.PutBuf(payload)
		return frame

	case wire.OpFaultDelta:
		req, err := wire.ParseFaultReq(job.payload)
		if err != nil {
			ws.mErrors.Inc()
			return errFrame(id, wire.CodeBadRequest, err.Error())
		}
		ev := faults.ChurnEvent{Kind: faults.DeltaKind(req.Kind), A: topo.NodeID(req.A), B: topo.NodeID(req.B)}
		// TryApply, matching the HTTP /fault semantics: churn never
		// blocks the data plane; a full queue is typed backpressure.
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
		return errFrame(id, wire.CodeUnknownOp, job.hdr.Op.String())
	}
}

// routeInfoOf compacts a routed result for the wire (clamped to the
// field widths; a hypercube route can't exceed them anyway).
func routeInfoOf(r *core.Route) wire.RouteInfo {
	return wire.RouteInfo{
		Outcome: uint8(r.Outcome),
		Cond:    uint8(r.Condition),
		Hamming: uint16(r.Hamming),
		Hops:    uint16(r.Len()),
	}
}
