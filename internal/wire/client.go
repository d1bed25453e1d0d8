package wire

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"sync"
	"time"
)

// Client is a pooled, pipelining wire-protocol client. Each pooled
// connection multiplexes many in-flight requests: senders stamp a
// per-connection request ID, register a waiter, and write the frame;
// one reader goroutine per connection demultiplexes responses back to
// their waiters by that ID. Requests therefore pipeline on one TCP
// stream without head-of-line blocking inside the client, and the pool
// spreads load over Conns streams. All methods are safe for concurrent
// use.
type Client struct {
	addr string
	opts ClientOptions

	mu    sync.Mutex
	conns []*clientConn
	next  uint64
	done  bool
}

// ClientOptions tune a Client. The zero value dials one connection.
// Every client accepts response payloads of up to DefaultMaxPayload
// bytes.
type ClientOptions struct {
	// Conns is the connection-pool size (<= 0 means 1).
	Conns int
	// DialTimeout bounds each dial (<= 0 means 5s).
	DialTimeout time.Duration
}

// Dial connects a client pool to a wire server. The first connection
// is established eagerly so configuration errors surface here; the
// rest are dialed on demand.
func Dial(addr string, opts ClientOptions) (*Client, error) {
	if opts.Conns <= 0 {
		opts.Conns = 1
	}
	if opts.DialTimeout <= 0 {
		opts.DialTimeout = 5 * time.Second
	}
	c := &Client{addr: addr, opts: opts, conns: make([]*clientConn, opts.Conns)}
	cc, err := c.dial()
	if err != nil {
		return nil, err
	}
	c.conns[0] = cc
	return c, nil
}

// Close tears down every pooled connection. In-flight requests fail
// with ErrClosed.
func (c *Client) Close() error {
	c.mu.Lock()
	c.done = true
	conns := append([]*clientConn(nil), c.conns...)
	c.mu.Unlock()
	for _, cc := range conns {
		if cc != nil {
			cc.close(ErrClosed)
		}
	}
	return nil
}

func (c *Client) dial() (*clientConn, error) {
	nc, err := net.DialTimeout("tcp", c.addr, c.opts.DialTimeout)
	if err != nil {
		return nil, err
	}
	if tc, ok := nc.(*net.TCPConn); ok {
		// Frames are already flushed whole; Nagle would only add delay
		// under the pipelined small-frame workload.
		_ = tc.SetNoDelay(true)
	}
	cc := &clientConn{
		nc:      nc,
		bw:      bufio.NewWriterSize(nc, 16<<10),
		pending: make(map[uint64]chan respFrame),
	}
	go cc.readLoop()
	return cc, nil
}

// conn picks the next pool slot round-robin, redialing slots whose
// connection died (lazy reconnect keeps one flaky drop from poisoning
// the pool for the rest of a run).
func (c *Client) conn() (*clientConn, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.done {
		return nil, ErrClosed
	}
	i := int(c.next % uint64(len(c.conns)))
	c.next++
	cc := c.conns[i]
	if cc != nil && !cc.dead() {
		return cc, nil
	}
	cc, err := c.dial()
	if err != nil {
		return nil, err
	}
	c.conns[i] = cc
	return cc, nil
}

// respFrame is one demultiplexed response: the parsed header and the
// payload, copied into a pooled buffer owned by the waiter.
type respFrame struct {
	hdr Header
	p   []byte
}

// clientConn is one pooled stream.
type clientConn struct {
	nc net.Conn

	wmu sync.Mutex // serializes frame writes and flushes
	bw  *bufio.Writer

	pmu     sync.Mutex
	pending map[uint64]chan respFrame
	nextID  uint64
	err     error // set once the read loop exits; conn is dead
}

func (cc *clientConn) dead() bool {
	cc.pmu.Lock()
	defer cc.pmu.Unlock()
	return cc.err != nil
}

// close fails every pending waiter and tears down the stream.
func (cc *clientConn) close(err error) {
	cc.pmu.Lock()
	if cc.err == nil {
		cc.err = err
	}
	waiters := cc.pending
	cc.pending = map[uint64]chan respFrame{}
	cc.pmu.Unlock()
	_ = cc.nc.Close()
	for _, ch := range waiters {
		close(ch)
	}
}

// readLoop demultiplexes response frames to their waiters until the
// stream breaks.
func (cc *clientConn) readLoop() {
	var buf []byte
	for {
		hdr, payload, nbuf, err := ReadFrame(cc.nc, buf, DefaultMaxPayload)
		buf = nbuf
		if err != nil {
			cc.close(fmt.Errorf("%w: %v", ErrClosed, err))
			return
		}
		cc.pmu.Lock()
		ch, ok := cc.pending[hdr.ReqID]
		delete(cc.pending, hdr.ReqID)
		cc.pmu.Unlock()
		if !ok {
			// Waiter gave up (deadline) — drop the late answer.
			continue
		}
		p := append(GetBuf(), payload...)
		ch <- respFrame{hdr: hdr, p: p}
	}
}

// call sends one request frame and waits for its response. payload is
// the encoded request body; the returned respFrame's buffer must be
// released with PutBuf by the caller. A context that is already done
// returns its error without sending anything: its budget could only
// reach the server as deadlineUS's 1µs floor, which the server
// sometimes beats.
func (cc *clientConn) call(ctx context.Context, op Op, payload []byte) (respFrame, error) {
	if err := ctx.Err(); err != nil {
		return respFrame{}, err
	}
	cc.pmu.Lock()
	if cc.err != nil {
		err := cc.err
		cc.pmu.Unlock()
		return respFrame{}, err
	}
	cc.nextID++
	id := cc.nextID
	ch := make(chan respFrame, 1)
	cc.pending[id] = ch
	cc.pmu.Unlock()

	frame := AppendFrame(GetBuf(), op, 0, id, payload)
	cc.wmu.Lock()
	_, werr := cc.bw.Write(frame)
	if werr == nil {
		werr = cc.bw.Flush()
	}
	cc.wmu.Unlock()
	PutBuf(frame)
	if werr != nil {
		cc.forget(id)
		cc.close(fmt.Errorf("%w: %v", ErrClosed, werr))
		return respFrame{}, werr
	}

	select {
	case rf, ok := <-ch:
		if !ok {
			cc.pmu.Lock()
			err := cc.err
			cc.pmu.Unlock()
			if err == nil {
				err = ErrClosed
			}
			return respFrame{}, err
		}
		return rf, nil
	case <-ctx.Done():
		cc.forget(id)
		return respFrame{}, ctx.Err()
	}
}

// forget abandons a pending waiter (deadline expiry, write failure).
// A response that raced the removal is drained and recycled.
func (cc *clientConn) forget(id uint64) {
	cc.pmu.Lock()
	ch, ok := cc.pending[id]
	delete(cc.pending, id)
	cc.pmu.Unlock()
	if ok {
		select {
		case rf, live := <-ch:
			if live {
				PutBuf(rf.p)
			}
		default:
		}
	}
}

// result decodes the common response-frame prologue: an OpError frame
// becomes its typed error, a mismatched opcode is a protocol error.
func checkResp(rf respFrame, want Op) error {
	if rf.hdr.Op == OpError {
		code, msg, err := ParseError(rf.p)
		if err != nil {
			return err
		}
		if msg != "" {
			return fmt.Errorf("%w: %s", code.Err(), msg)
		}
		return code.Err()
	}
	if rf.hdr.Op != want {
		return fmt.Errorf("wire: response opcode %v, want %v", rf.hdr.Op, want)
	}
	return nil
}

// deadlineUS converts a context deadline into the on-wire microsecond
// budget (0 = none, clamped to at least 1 once a deadline exists).
func deadlineUS(ctx context.Context) uint32 {
	dl, ok := ctx.Deadline()
	if !ok {
		return 0
	}
	us := time.Until(dl).Microseconds()
	if us < 1 {
		us = 1
	}
	if us > 1<<31 {
		us = 1 << 31
	}
	return uint32(us)
}

// Ping round-trips a liveness frame and returns the server's protocol
// version. A server that refuses this client's version surfaces as
// ErrVersion here — the recommended post-dial handshake.
func (c *Client) Ping(ctx context.Context) (PingResp, error) {
	cc, err := c.conn()
	if err != nil {
		return PingResp{}, err
	}
	rf, err := cc.call(ctx, OpPing, nil)
	if err != nil {
		return PingResp{}, err
	}
	defer PutBuf(rf.p)
	if err := checkResp(rf, OpPing); err != nil {
		return PingResp{}, err
	}
	return ParsePingResp(rf.p)
}

// Unicast routes one pair.
func (c *Client) Unicast(ctx context.Context, src, dst uint32) (UnicastResp, error) {
	cc, err := c.conn()
	if err != nil {
		return UnicastResp{}, err
	}
	var pb [unicastReqSize]byte
	payload := AppendUnicastReq(pb[:0], UnicastReq{Src: src, Dst: dst, DeadlineUS: deadlineUS(ctx)})
	rf, err := cc.call(ctx, OpUnicast, payload)
	if err != nil {
		return UnicastResp{}, err
	}
	defer PutBuf(rf.p)
	if err := checkResp(rf, OpUnicast); err != nil {
		return UnicastResp{}, err
	}
	return ParseUnicastResp(rf.p)
}

// Batch routes many pairs against one snapshot; routes is filled into
// the caller's slice (reused when capacity allows) in request order.
func (c *Client) Batch(ctx context.Context, pairs []Pair, routes []RouteInfo) (gen uint64, out []RouteInfo, err error) {
	cc, err := c.conn()
	if err != nil {
		return 0, routes, err
	}
	payload := AppendBatchReq(GetBuf(), deadlineUS(ctx), pairs)
	rf, err := cc.call(ctx, OpBatch, payload)
	PutBuf(payload)
	if err != nil {
		return 0, routes, err
	}
	defer PutBuf(rf.p)
	if err := checkResp(rf, OpBatch); err != nil {
		return 0, routes, err
	}
	return ParseBatchResp(rf.p, routes)
}

// Feasibility evaluates the admission test on one pair.
func (c *Client) Feasibility(ctx context.Context, src, dst uint32) (FeasResp, error) {
	cc, err := c.conn()
	if err != nil {
		return FeasResp{}, err
	}
	var pb [feasReqSize]byte
	payload := AppendFeasReq(pb[:0], FeasReq{Src: src, Dst: dst})
	rf, err := cc.call(ctx, OpFeasibility, payload)
	if err != nil {
		return FeasResp{}, err
	}
	defer PutBuf(rf.p)
	if err := checkResp(rf, OpFeasibility); err != nil {
		return FeasResp{}, err
	}
	return ParseFeasResp(rf.p)
}

// Fault enqueues one churn event (kind uses the fault journal's
// DeltaKind encoding). A full apply queue surfaces as ErrBacklog.
func (c *Client) Fault(ctx context.Context, req FaultReq) (FaultResp, error) {
	cc, err := c.conn()
	if err != nil {
		return FaultResp{}, err
	}
	var pb [faultReqSize]byte
	payload := AppendFaultReq(pb[:0], req)
	rf, err := cc.call(ctx, OpFaultDelta, payload)
	if err != nil {
		return FaultResp{}, err
	}
	defer PutBuf(rf.p)
	if err := checkResp(rf, OpFaultDelta); err != nil {
		return FaultResp{}, err
	}
	return ParseFaultResp(rf.p)
}
