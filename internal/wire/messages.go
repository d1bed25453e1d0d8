package wire

import (
	"encoding/binary"
	"fmt"
	"slices"
)

// Payload layouts, all little-endian with fixed offsets. Appenders
// extend a caller buffer; parsers read in place and fill caller-owned
// slices, so neither direction allocates on the hot path.

// Pair is one src→dst unicast query of a batch.
type Pair struct {
	Src, Dst uint32
}

// RouteInfo is the compact per-route result: enough for a load
// generator or forwarding client to classify the answer without the
// path bytes (outcome and condition use the engine's own encodings).
type RouteInfo struct {
	Outcome uint8
	Cond    uint8
	Hamming uint16
	Hops    uint16
}

const (
	unicastReqSize  = 12
	unicastRespSize = 24
	feasReqSize     = 8
	feasRespSize    = 2
	faultReqSize    = 12
	faultRespSize   = 12
	pingRespSize    = 2
	pairSize        = 8
	routeInfoSize   = 6
	batchReqMin     = 8
	batchRespMin    = 12
	errRespMin      = 4
)

// UnicastReq asks for one route. DeadlineUS is the remaining deadline
// budget in microseconds at send time (0 = no deadline); the server
// re-arms it as a context timeout so budgets survive the hop.
type UnicastReq struct {
	Src, Dst   uint32
	DeadlineUS uint32
}

// AppendUnicastReq appends the OpUnicast request payload.
func AppendUnicastReq(b []byte, m UnicastReq) []byte {
	var p [unicastReqSize]byte
	binary.LittleEndian.PutUint32(p[0:], m.Src)
	binary.LittleEndian.PutUint32(p[4:], m.Dst)
	binary.LittleEndian.PutUint32(p[8:], m.DeadlineUS)
	return append(b, p[:]...)
}

// ParseUnicastReq decodes an OpUnicast request payload.
func ParseUnicastReq(p []byte) (UnicastReq, error) {
	if len(p) < unicastReqSize {
		return UnicastReq{}, fmt.Errorf("%w: unicast request %d < %d bytes", ErrShort, len(p), unicastReqSize)
	}
	return UnicastReq{
		Src:        binary.LittleEndian.Uint32(p[0:]),
		Dst:        binary.LittleEndian.Uint32(p[4:]),
		DeadlineUS: binary.LittleEndian.Uint32(p[8:]),
	}, nil
}

// UnicastResp answers one route. Gen is the snapshot generation the
// route was computed against; FlightID is the flight-recorder request
// ID, the causal join key into /debug/flight and histogram exemplars.
type UnicastResp struct {
	Gen      uint64
	FlightID uint64
	Route    RouteInfo
}

// AppendUnicastResp appends the OpUnicast response payload.
func AppendUnicastResp(b []byte, m UnicastResp) []byte {
	var p [16]byte // Gen, then FlightID
	binary.LittleEndian.PutUint64(p[0:], m.Gen)
	binary.LittleEndian.PutUint64(p[8:], m.FlightID)
	b = AppendRouteInfo(append(b, p[:]...), m.Route)
	// Two trailing pad bytes keep the payload 8-byte aligned for v1.x
	// extensions; they must be zero.
	return append(b, 0, 0)
}

// ParseUnicastResp decodes an OpUnicast response payload.
func ParseUnicastResp(p []byte) (UnicastResp, error) {
	if len(p) < unicastRespSize {
		return UnicastResp{}, fmt.Errorf("%w: unicast response %d < %d bytes", ErrShort, len(p), unicastRespSize)
	}
	return UnicastResp{
		Gen:      binary.LittleEndian.Uint64(p[0:]),
		FlightID: binary.LittleEndian.Uint64(p[8:]),
		Route:    routeInfoAt(p[16:]),
	}, nil
}

func routeInfoAt(p []byte) RouteInfo {
	return RouteInfo{
		Outcome: p[0],
		Cond:    p[1],
		Hamming: binary.LittleEndian.Uint16(p[2:]),
		Hops:    binary.LittleEndian.Uint16(p[4:]),
	}
}

// AppendBatchReq appends the OpBatch request payload: the shared
// deadline budget, the pair count, then the pairs.
func AppendBatchReq(b []byte, deadlineUS uint32, pairs []Pair) []byte {
	var hd [batchReqMin]byte
	binary.LittleEndian.PutUint32(hd[0:], deadlineUS)
	binary.LittleEndian.PutUint32(hd[4:], uint32(len(pairs)))
	b = append(b, hd[:]...)
	for _, q := range pairs {
		var p [pairSize]byte
		binary.LittleEndian.PutUint32(p[0:], q.Src)
		binary.LittleEndian.PutUint32(p[4:], q.Dst)
		b = append(b, p[:]...)
	}
	return b
}

// ParseBatchReq decodes an OpBatch request of at most limit pairs into
// the caller's pairs slice (reused when capacity allows). The declared
// count must match the payload length exactly — a count that promises
// more pairs than the payload carries is malformed, never a short read.
// A well-formed request of more than limit pairs is refused with an
// error matching ErrTooLarge before any pair is decoded, so pairs never
// grows past limit.
func ParseBatchReq(p []byte, pairs []Pair, limit int) (deadlineUS uint32, out []Pair, err error) {
	deadlineUS, n, err := ParseBatchReqHeader(p, limit)
	if err != nil {
		return 0, pairs, err
	}
	out = pairs[:0]
	for i := 0; i < n; i++ {
		out = append(out, BatchReqPair(p, i))
	}
	return deadlineUS, out, nil
}

// ParseBatchReqHeader checks an OpBatch request payload as
// ParseBatchReq does, without decoding a pair, and returns its
// deadline budget and pair count n. Pair i, for i < n, is then
// BatchReqPair(p, i), so a server decodes the pairs straight into its
// own request type.
func ParseBatchReqHeader(p []byte, limit int) (deadlineUS uint32, n int, err error) {
	if len(p) < batchReqMin {
		return 0, 0, fmt.Errorf("%w: batch request %d < %d bytes", ErrShort, len(p), batchReqMin)
	}
	n = int(binary.LittleEndian.Uint32(p[4:]))
	if want := batchReqMin + n*pairSize; len(p) != want {
		return 0, 0, fmt.Errorf("%w: batch request declares %d pairs (%d bytes), has %d", ErrShort, n, want, len(p))
	}
	if n > limit {
		return 0, 0, pairLimitError{n, limit}
	}
	return binary.LittleEndian.Uint32(p[0:]), n, nil
}

// BatchReqPair decodes pair i of an OpBatch request payload that
// ParseBatchReqHeader accepted.
func BatchReqPair(p []byte, i int) Pair {
	q := p[batchReqMin+i*pairSize:]
	return Pair{Src: binary.LittleEndian.Uint32(q[0:]), Dst: binary.LittleEndian.Uint32(q[4:8])}
}

// pairLimitError is ParseBatchReq's refusal of a request that declares
// more pairs than its limit; it matches ErrTooLarge.
type pairLimitError struct{ n, limit int }

func (e pairLimitError) Error() string {
	return fmt.Sprintf("batch of %d pairs exceeds limit %d", e.n, e.limit)
}

func (e pairLimitError) Is(target error) bool { return target == ErrTooLarge }

// AppendBatchResp appends the OpBatch response payload: snapshot
// generation, route count, then the compact per-route records in
// request order.
func AppendBatchResp(b []byte, gen uint64, routes []RouteInfo) []byte {
	b = appendBatchRespHeader(b, gen, len(routes))
	for _, r := range routes {
		b = AppendRouteInfo(b, r)
	}
	return b
}

// AppendBatchRespFrame appends the start of an OpBatch response frame
// for request reqID: the frame header and the payload's own header, for
// snapshot generation gen and n routes. The caller then appends the n
// routes in request order with AppendRouteInfo, which completes the
// frame byte for byte as AppendFrame(b, OpBatch, FlagResponse, reqID,
// AppendBatchResp(nil, gen, routes)) would, without building the
// payload apart. b is grown once to hold the whole frame.
func AppendBatchRespFrame(b []byte, reqID, gen uint64, n int) []byte {
	size := batchRespMin + n*routeInfoSize
	b = slices.Grow(b, HeaderSize+size)
	b = appendFrameHeader(b, OpBatch, FlagResponse, reqID, size)
	return appendBatchRespHeader(b, gen, n)
}

// appendBatchRespHeader appends an OpBatch response payload's header:
// the generation and the count of the n routes that follow.
func appendBatchRespHeader(b []byte, gen uint64, n int) []byte {
	var hd [batchRespMin]byte
	binary.LittleEndian.PutUint64(hd[0:], gen)
	binary.LittleEndian.PutUint32(hd[8:], uint32(n))
	return append(b, hd[:]...)
}

// AppendRouteInfo appends one compact route record: outcome,
// condition, then the Hamming distance and the hop count as
// little-endian uint16s. It appends the bytes one by one: staged in an
// array, they would be six narrow stores that the wide copy out of it
// has to wait on.
func AppendRouteInfo(b []byte, r RouteInfo) []byte {
	return append(b, r.Outcome, r.Cond, byte(r.Hamming), byte(r.Hamming>>8), byte(r.Hops), byte(r.Hops>>8))
}

// ParseBatchResp decodes an OpBatch response into the caller's routes
// slice (reused when capacity allows).
func ParseBatchResp(p []byte, routes []RouteInfo) (gen uint64, out []RouteInfo, err error) {
	if len(p) < batchRespMin {
		return 0, routes, fmt.Errorf("%w: batch response %d < %d bytes", ErrShort, len(p), batchRespMin)
	}
	gen = binary.LittleEndian.Uint64(p[0:])
	n := int(binary.LittleEndian.Uint32(p[8:]))
	if want := batchRespMin + n*routeInfoSize; len(p) != want {
		return 0, routes, fmt.Errorf("%w: batch response declares %d routes (%d bytes), has %d", ErrShort, n, want, len(p))
	}
	out = routes[:0]
	for i := 0; i < n; i++ {
		out = append(out, routeInfoAt(p[batchRespMin+i*routeInfoSize:]))
	}
	return gen, out, nil
}

// FeasReq asks for the admission test on one pair.
type FeasReq struct {
	Src, Dst uint32
}

// AppendFeasReq appends the OpFeasibility request payload.
func AppendFeasReq(b []byte, m FeasReq) []byte {
	var p [feasReqSize]byte
	binary.LittleEndian.PutUint32(p[0:], m.Src)
	binary.LittleEndian.PutUint32(p[4:], m.Dst)
	return append(b, p[:]...)
}

// ParseFeasReq decodes an OpFeasibility request payload.
func ParseFeasReq(p []byte) (FeasReq, error) {
	if len(p) < feasReqSize {
		return FeasReq{}, fmt.Errorf("%w: feasibility request %d < %d bytes", ErrShort, len(p), feasReqSize)
	}
	return FeasReq{
		Src: binary.LittleEndian.Uint32(p[0:]),
		Dst: binary.LittleEndian.Uint32(p[4:]),
	}, nil
}

// FeasResp answers the admission test (engine Condition/Outcome
// encodings).
type FeasResp struct {
	Cond    uint8
	Outcome uint8
}

// AppendFeasResp appends the OpFeasibility response payload.
func AppendFeasResp(b []byte, m FeasResp) []byte {
	return append(b, m.Cond, m.Outcome)
}

// ParseFeasResp decodes an OpFeasibility response payload.
func ParseFeasResp(p []byte) (FeasResp, error) {
	if len(p) < feasRespSize {
		return FeasResp{}, fmt.Errorf("%w: feasibility response %d < %d bytes", ErrShort, len(p), feasRespSize)
	}
	return FeasResp{Cond: p[0], Outcome: p[1]}, nil
}

// FaultReq enqueues one churn event. Kind uses the fault journal's
// DeltaKind encoding (fail-node, recover-node, fail-link,
// recover-link); B is ignored for node events.
type FaultReq struct {
	Kind uint8
	A, B uint32
}

// AppendFaultReq appends the OpFaultDelta request payload.
func AppendFaultReq(b []byte, m FaultReq) []byte {
	var p [faultReqSize]byte
	p[0] = m.Kind
	binary.LittleEndian.PutUint32(p[4:], m.A)
	binary.LittleEndian.PutUint32(p[8:], m.B)
	return append(b, p[:]...)
}

// ParseFaultReq decodes an OpFaultDelta request payload.
func ParseFaultReq(p []byte) (FaultReq, error) {
	if len(p) < faultReqSize {
		return FaultReq{}, fmt.Errorf("%w: fault request %d < %d bytes", ErrShort, len(p), faultReqSize)
	}
	return FaultReq{
		Kind: p[0],
		A:    binary.LittleEndian.Uint32(p[4:]),
		B:    binary.LittleEndian.Uint32(p[8:]),
	}, nil
}

// FaultResp acknowledges an accepted churn event: the generation at
// acceptance time (churn applies asynchronously; the published
// generation advances on swap) and the apply-queue depth.
type FaultResp struct {
	Gen        uint64
	QueueDepth uint32
}

// AppendFaultResp appends the OpFaultDelta response payload.
func AppendFaultResp(b []byte, m FaultResp) []byte {
	var p [faultRespSize]byte
	binary.LittleEndian.PutUint64(p[0:], m.Gen)
	binary.LittleEndian.PutUint32(p[8:], m.QueueDepth)
	return append(b, p[:]...)
}

// ParseFaultResp decodes an OpFaultDelta response payload.
func ParseFaultResp(p []byte) (FaultResp, error) {
	if len(p) < faultRespSize {
		return FaultResp{}, fmt.Errorf("%w: fault response %d < %d bytes", ErrShort, len(p), faultRespSize)
	}
	return FaultResp{
		Gen:        binary.LittleEndian.Uint64(p[0:]),
		QueueDepth: binary.LittleEndian.Uint32(p[8:]),
	}, nil
}

// PingResp carries the server's protocol version — the handshake a
// client uses to discover what it is talking to. The request payload
// is empty.
type PingResp struct {
	Major, Minor uint8
}

// AppendPingResp appends the OpPing response payload.
func AppendPingResp(b []byte, m PingResp) []byte {
	return append(b, m.Major, m.Minor)
}

// ParsePingResp decodes an OpPing response payload.
func ParsePingResp(p []byte) (PingResp, error) {
	if len(p) < pingRespSize {
		return PingResp{}, fmt.Errorf("%w: ping response %d < %d bytes", ErrShort, len(p), pingRespSize)
	}
	return PingResp{Major: p[0], Minor: p[1]}, nil
}

// AppendError appends the OpError response payload: the typed code,
// then an optional human-readable detail string (bounded; the code
// alone decides client behavior).
func AppendError(b []byte, code ErrCode, msg string) []byte {
	if len(msg) > 1<<12 {
		msg = msg[:1<<12]
	}
	var p [errRespMin]byte
	binary.LittleEndian.PutUint16(p[0:], uint16(code))
	binary.LittleEndian.PutUint16(p[2:], uint16(len(msg)))
	b = append(b, p[:]...)
	return append(b, msg...)
}

// ParseError decodes an OpError response payload.
func ParseError(p []byte) (ErrCode, string, error) {
	if len(p) < errRespMin {
		return 0, "", fmt.Errorf("%w: error frame %d < %d bytes", ErrShort, len(p), errRespMin)
	}
	code := ErrCode(binary.LittleEndian.Uint16(p[0:]))
	n := int(binary.LittleEndian.Uint16(p[2:]))
	if len(p) != errRespMin+n {
		return 0, "", fmt.Errorf("%w: error frame declares %d detail bytes, has %d", ErrShort, n, len(p)-errRespMin)
	}
	return code, string(p[errRespMin:]), nil
}
