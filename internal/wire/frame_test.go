package wire

import (
	"bytes"
	"errors"
	"io"
	"runtime"
	"strings"
	"testing"
)

func TestHeaderRoundTrip(t *testing.T) {
	h := Header{
		Major: Major, Minor: Minor,
		Op: OpBatch, Flags: FlagResponse,
		ReqID: 0xDEADBEEFCAFE, Len: 12345,
	}
	var b [HeaderSize]byte
	PutHeader(b[:], h)
	got, err := ParseHeader(b[:])
	if err != nil {
		t.Fatalf("ParseHeader: %v", err)
	}
	if got != h {
		t.Fatalf("header round trip: got %+v, want %+v", got, h)
	}
}

func TestParseHeaderRejects(t *testing.T) {
	var b [HeaderSize]byte
	PutHeader(b[:], Header{Op: OpPing})
	if _, err := ParseHeader(b[:HeaderSize-1]); !errors.Is(err, ErrShort) {
		t.Fatalf("short header: got %v, want ErrShort", err)
	}
	b[0] ^= 0xFF
	if _, err := ParseHeader(b[:]); !errors.Is(err, ErrMagic) {
		t.Fatalf("bad magic: got %v, want ErrMagic", err)
	}
}

func TestMessageRoundTrips(t *testing.T) {
	ureq := UnicastReq{Src: 5, Dst: 250, DeadlineUS: 1500}
	if got, err := ParseUnicastReq(AppendUnicastReq(nil, ureq)); err != nil || got != ureq {
		t.Fatalf("unicast req: got %+v, %v", got, err)
	}
	uresp := UnicastResp{Gen: 7, FlightID: 99, Route: RouteInfo{Outcome: 1, Cond: 2, Hamming: 3, Hops: 4}}
	if got, err := ParseUnicastResp(AppendUnicastResp(nil, uresp)); err != nil || got != uresp {
		t.Fatalf("unicast resp: got %+v, %v", got, err)
	}
	freq := FeasReq{Src: 1, Dst: 2}
	if got, err := ParseFeasReq(AppendFeasReq(nil, freq)); err != nil || got != freq {
		t.Fatalf("feas req: got %+v, %v", got, err)
	}
	fresp := FeasResp{Cond: 3, Outcome: 2}
	if got, err := ParseFeasResp(AppendFeasResp(nil, fresp)); err != nil || got != fresp {
		t.Fatalf("feas resp: got %+v, %v", got, err)
	}
	dreq := FaultReq{Kind: 2, A: 9, B: 13}
	if got, err := ParseFaultReq(AppendFaultReq(nil, dreq)); err != nil || got != dreq {
		t.Fatalf("fault req: got %+v, %v", got, err)
	}
	dresp := FaultResp{Gen: 41, QueueDepth: 17}
	if got, err := ParseFaultResp(AppendFaultResp(nil, dresp)); err != nil || got != dresp {
		t.Fatalf("fault resp: got %+v, %v", got, err)
	}
	presp := PingResp{Major: 1, Minor: 3}
	if got, err := ParsePingResp(AppendPingResp(nil, presp)); err != nil || got != presp {
		t.Fatalf("ping resp: got %+v, %v", got, err)
	}
}

func TestBatchRoundTrip(t *testing.T) {
	pairs := []Pair{{1, 2}, {3, 4}, {5, 6}}
	p := AppendBatchReq(nil, 777, pairs)
	dl, got, err := ParseBatchReq(p, nil, DefaultMaxPayload)
	if err != nil || dl != 777 {
		t.Fatalf("batch req: deadline %d, err %v", dl, err)
	}
	if len(got) != len(pairs) {
		t.Fatalf("batch req: %d pairs, want %d", len(got), len(pairs))
	}
	for i := range pairs {
		if got[i] != pairs[i] {
			t.Fatalf("pair %d: got %+v, want %+v", i, got[i], pairs[i])
		}
	}

	routes := []RouteInfo{{Outcome: 0, Cond: 1, Hamming: 2, Hops: 2}, {Outcome: 2, Cond: 0, Hamming: 5, Hops: 0}}
	rp := AppendBatchResp(nil, 9, routes)
	gen, rgot, err := ParseBatchResp(rp, nil)
	if err != nil || gen != 9 {
		t.Fatalf("batch resp: gen %d, err %v", gen, err)
	}
	if len(rgot) != len(routes) || rgot[0] != routes[0] || rgot[1] != routes[1] {
		t.Fatalf("batch resp: got %+v, want %+v", rgot, routes)
	}
	// A server opens the response frame and appends the routes to it;
	// the bytes must be those of the payload framed whole.
	for _, rs := range [][]RouteInfo{nil, routes} {
		f := AppendBatchRespFrame([]byte{0xAA}, 5, 9, len(rs))
		for _, r := range rs {
			f = AppendRouteInfo(f, r)
		}
		if want := AppendFrame([]byte{0xAA}, OpBatch, FlagResponse, 5, AppendBatchResp(nil, 9, rs)); !bytes.Equal(f, want) {
			t.Fatalf("%d routes: opened frame % x, framed payload % x", len(rs), f, want)
		}
	}
}

func TestBatchLengthMismatch(t *testing.T) {
	p := AppendBatchReq(nil, 0, []Pair{{1, 2}, {3, 4}})
	// Inflate the declared count beyond the bytes present: malformed,
	// not a short read into garbage.
	p[4] = 200
	if _, _, err := ParseBatchReq(p, nil, DefaultMaxPayload); !errors.Is(err, ErrShort) {
		t.Fatalf("inflated count: got %v, want ErrShort", err)
	}
	rp := AppendBatchResp(nil, 1, []RouteInfo{{}})
	rp = rp[:len(rp)-1]
	if _, _, err := ParseBatchResp(rp, nil); !errors.Is(err, ErrShort) {
		t.Fatalf("truncated resp: got %v, want ErrShort", err)
	}
}

// TestBatchReqPairLimit holds ParseBatchReq to its pair limit: a
// request of exactly the limit decodes, and one pair more is refused as
// ErrTooLarge, naming both counts, without decoding a pair, so the
// caller's slice keeps its capacity. A malformed count is ErrShort
// whatever the limit.
func TestBatchReqPairLimit(t *testing.T) {
	pairs := make([]Pair, 5)
	p := AppendBatchReq(nil, 0, pairs)
	if _, got, err := ParseBatchReq(p, nil, 5); err != nil || len(got) != 5 {
		t.Fatalf("5 pairs under limit 5: %d pairs, %v", len(got), err)
	}
	scratch := make([]Pair, 0, 2)
	_, got, err := ParseBatchReq(p, scratch, 4)
	if !errors.Is(err, ErrTooLarge) || err.Error() != "batch of 5 pairs exceeds limit 4" {
		t.Fatalf("5 pairs under limit 4: %v, want ErrTooLarge", err)
	}
	if len(got) != 0 || cap(got) != 2 {
		t.Fatalf("refused request left %d pairs in a slice of capacity %d, want 0 and 2", len(got), cap(got))
	}
	p[4] = 200
	if _, _, err := ParseBatchReq(p, nil, 4); !errors.Is(err, ErrShort) {
		t.Fatalf("inflated count under a limit: got %v, want ErrShort", err)
	}
}

func TestErrorRoundTrip(t *testing.T) {
	p := AppendError(nil, CodeOverload, "shed")
	code, msg, err := ParseError(p)
	if err != nil || code != CodeOverload || msg != "shed" {
		t.Fatalf("error frame: code %d, msg %q, err %v", code, msg, err)
	}
	if !errors.Is(code.Err(), ErrOverload) {
		t.Fatalf("CodeOverload.Err() = %v, want ErrOverload", code.Err())
	}
	// Oversize detail is truncated at encode, never rejected.
	long := AppendError(nil, CodeInternal, strings.Repeat("x", 1<<13))
	if _, msg, err := ParseError(long); err != nil || len(msg) != 1<<12 {
		t.Fatalf("long detail: len %d, err %v", len(msg), err)
	}
}

func TestOpString(t *testing.T) {
	want := map[Op]string{
		OpPing:        "ping",
		OpUnicast:     "unicast",
		OpBatch:       "batch",
		OpFeasibility: "feasibility",
		OpFaultDelta:  "fault-delta",
		OpError:       "error",
		Op(77):        "op(77)",
	}
	for op, s := range want {
		if got := op.String(); got != s {
			t.Errorf("Op(%d).String() = %q, want %q", uint8(op), got, s)
		}
	}
}

// Every fixed-size parser refuses a payload one byte short of its
// minimum with ErrShort — no partial decode, no panic.
func TestParsersRejectShortPayloads(t *testing.T) {
	short := make([]byte, 1)
	checks := map[string]error{}
	_, err := ParseUnicastReq(short)
	checks["unicast req"] = err
	_, err = ParseUnicastResp(short)
	checks["unicast resp"] = err
	_, _, err = ParseBatchReq(short, nil, DefaultMaxPayload)
	checks["batch req"] = err
	_, _, err = ParseBatchResp(short, nil)
	checks["batch resp"] = err
	_, err = ParseFeasReq(short)
	checks["feas req"] = err
	_, err = ParseFeasResp(short)
	checks["feas resp"] = err
	_, err = ParseFaultReq(short)
	checks["fault req"] = err
	_, err = ParseFaultResp(short)
	checks["fault resp"] = err
	_, err = ParsePingResp(short)
	checks["ping resp"] = err
	_, _, err = ParseError(short)
	checks["error"] = err
	for name, err := range checks {
		if !errors.Is(err, ErrShort) {
			t.Errorf("%s: got %v, want ErrShort", name, err)
		}
	}
}

func TestErrCodeMapping(t *testing.T) {
	want := map[ErrCode]error{
		CodeBadRequest: ErrBadRequest,
		CodeOverload:   ErrOverload,
		CodeBacklog:    ErrBacklog,
		CodeDraining:   ErrDraining,
		CodeDeadline:   ErrDeadline,
		CodeCanceled:   ErrCanceled,
		CodeVersion:    ErrVersion,
		CodeTooLarge:   ErrTooLarge,
		CodeUnknownOp:  ErrUnknownOp,
		CodeInternal:   ErrInternal,
		ErrCode(999):   ErrInternal,
	}
	for code, sentinel := range want {
		if !errors.Is(code.Err(), sentinel) {
			t.Errorf("code %d: got %v, want %v", code, code.Err(), sentinel)
		}
	}
}

func TestReadFrame(t *testing.T) {
	frame := AppendFrame(nil, OpUnicast, 0, 42, AppendUnicastReq(nil, UnicastReq{Src: 1, Dst: 2}))
	h, payload, buf, err := ReadFrame(bytes.NewReader(frame), nil, 0)
	if err != nil {
		t.Fatalf("ReadFrame: %v", err)
	}
	if h.Op != OpUnicast || h.ReqID != 42 || int(h.Len) != len(payload) {
		t.Fatalf("header %+v, payload %d bytes", h, len(payload))
	}
	m, err := ParseUnicastReq(payload)
	if err != nil || m.Src != 1 || m.Dst != 2 {
		t.Fatalf("payload: %+v, %v", m, err)
	}
	// The returned backing buffer is reusable for the next call.
	if _, _, _, err := ReadFrame(bytes.NewReader(frame), buf, 0); err != nil {
		t.Fatalf("reuse: %v", err)
	}
}

func TestReadFrameOversizeRejectedBeforeAlloc(t *testing.T) {
	var hb [HeaderSize]byte
	PutHeader(hb[:], Header{Major: Major, Minor: Minor, Op: OpBatch, ReqID: 1, Len: 1 << 30})
	// Only the header is present; if ReadFrame tried to allocate or read
	// the advertised gigabyte it would block or blow up — it must refuse
	// on the declared length alone. Measure bytes, not objects: a
	// payload-sized buffer is one object but 2^30 bytes.
	r := bytes.NewReader(hb[:])
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < 100; i++ {
		r.Reset(hb[:])
		_, _, _, err := ReadFrame(r, nil, 1<<16)
		if !errors.Is(err, ErrTooLarge) {
			t.Fatalf("oversize: got %v, want ErrTooLarge", err)
		}
	}
	runtime.ReadMemStats(&after)
	if delta := after.TotalAlloc - before.TotalAlloc; delta > 1<<20 {
		t.Fatalf("oversize reject allocated %d bytes over 100 calls", delta)
	}
}

func TestReadFrameTruncated(t *testing.T) {
	frame := AppendFrame(nil, OpPing, 0, 7, nil)
	if _, _, _, err := ReadFrame(bytes.NewReader(frame[:HeaderSize-3]), nil, 0); err == nil {
		t.Fatal("truncated header: want error")
	}
	full := AppendFrame(nil, OpUnicast, 0, 7, AppendUnicastReq(nil, UnicastReq{}))
	if _, _, _, err := ReadFrame(bytes.NewReader(full[:len(full)-2]), nil, 0); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("truncated payload: got %v, want ErrUnexpectedEOF", err)
	}
}

func TestBufPool(t *testing.T) {
	b := GetBuf()
	if len(b) != 0 {
		t.Fatalf("GetBuf length %d, want 0", len(b))
	}
	b = AppendFrame(b, OpPing, 0, 1, nil)
	PutBuf(b)
	PutBuf(nil) // zero-cap buffers are dropped, not pooled
}

// TestWireCodecZeroAlloc is the hot-path contract: once the buffer pool
// is warm, encoding and decoding a frame allocates nothing.
func TestWireCodecZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation makes sync.Pool drop puts; alloc counts are meaningless")
	}
	// Warm the pool.
	PutBuf(AppendFrame(GetBuf(), OpUnicast, 0, 1, nil))

	encAllocs := testing.AllocsPerRun(1000, func() {
		b := GetBuf()
		b = AppendUnicastReq(b, UnicastReq{Src: 3, Dst: 5, DeadlineUS: 100})
		f := GetBuf()
		f = AppendFrame(f, OpUnicast, 0, 9, b)
		PutBuf(f)
		PutBuf(b)
	})
	if encAllocs != 0 {
		t.Errorf("encode: %v allocs/op, want 0", encAllocs)
	}

	frame := AppendFrame(nil, OpUnicast, 0, 42, AppendUnicastReq(nil, UnicastReq{Src: 1, Dst: 2}))
	decAllocs := testing.AllocsPerRun(1000, func() {
		h, err := ParseHeader(frame)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ParseUnicastReq(frame[HeaderSize : HeaderSize+int(h.Len)]); err != nil {
			t.Fatal(err)
		}
	})
	if decAllocs != 0 {
		t.Errorf("decode: %v allocs/op, want 0", decAllocs)
	}

	pairs := []Pair{{1, 2}, {3, 4}, {5, 6}, {7, 8}}
	breq := AppendBatchReq(nil, 0, pairs)
	scratch := make([]Pair, 0, 8)
	batchAllocs := testing.AllocsPerRun(1000, func() {
		_, out, err := ParseBatchReq(breq, scratch, DefaultMaxPayload)
		if err != nil || len(out) != 4 {
			t.Fatal(err)
		}
	})
	if batchAllocs != 0 {
		t.Errorf("batch decode: %v allocs/op, want 0", batchAllocs)
	}
}

// BenchmarkWireEncode measures building one complete OpUnicast request
// frame with pooled buffers; the bench gate holds it at 0 allocs/op.
func BenchmarkWireEncode(b *testing.B) {
	PutBuf(AppendFrame(GetBuf(), OpUnicast, 0, 1, nil))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := GetBuf()
		p = AppendUnicastReq(p, UnicastReq{Src: 3, Dst: 250, DeadlineUS: 1500})
		f := GetBuf()
		f = AppendFrame(f, OpUnicast, 0, uint64(i), p)
		PutBuf(f)
		PutBuf(p)
	}
}

// BenchmarkWireDecode measures header + payload decode of an OpUnicast
// frame read from a stream; the bench gate holds it at 0 allocs/op.
func BenchmarkWireDecode(b *testing.B) {
	frame := AppendFrame(nil, OpUnicast, 0, 42, AppendUnicastReq(nil, UnicastReq{Src: 1, Dst: 2, DeadlineUS: 50}))
	r := bytes.NewReader(frame)
	buf := make([]byte, 0, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Reset(frame)
		h, payload, nbuf, err := ReadFrame(r, buf, 0)
		if err != nil {
			b.Fatal(err)
		}
		buf = nbuf
		if _, err := ParseUnicastReq(payload); err != nil || h.ReqID != 42 {
			b.Fatal(err)
		}
	}
}

// BenchmarkWireEncodeBatch measures a 64-pair batch request frame.
func BenchmarkWireEncodeBatch(b *testing.B) {
	pairs := make([]Pair, 64)
	for i := range pairs {
		pairs[i] = Pair{Src: uint32(i), Dst: uint32(255 - i)}
	}
	pbuf := make([]byte, 0, 1024)
	fbuf := make([]byte, 0, 1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := AppendBatchReq(pbuf[:0], 0, pairs)
		_ = AppendFrame(fbuf[:0], OpBatch, 0, uint64(i), p)
	}
}
