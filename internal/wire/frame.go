package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"
)

// Protocol constants. The header is fixed-size little-endian so both
// sides parse it with direct loads — no varints, no reflection.
const (
	// Magic opens every frame: "SLW1" little-endian.
	Magic uint32 = 0x31574C53
	// Major/Minor is the protocol version this package speaks. Minor
	// bumps add fields or opcodes without moving existing bytes; major
	// bumps may relayout. A server refuses versions it cannot serve
	// with an Error frame coded CodeVersion.
	Major uint8 = 1
	Minor uint8 = 0
	// HeaderSize is the fixed frame-header length in bytes.
	HeaderSize = 20
	// DefaultMaxPayload bounds the payload length a reader will accept
	// before allocating (1 MiB holds a 65k-pair batch with room).
	DefaultMaxPayload = 1 << 20
)

// Op identifies the operation a frame carries.
type Op uint8

const (
	// OpPing is the liveness and version handshake; its response
	// carries the server's protocol version.
	OpPing Op = 1
	// OpUnicast is a single route query.
	OpUnicast Op = 2
	// OpBatch is a pipelined batch of route queries answered against
	// one snapshot.
	OpBatch Op = 3
	// OpFeasibility is the source-side admission test without routing.
	OpFeasibility Op = 4
	// OpFaultDelta enqueues one churn event (fail/recover node/link).
	OpFaultDelta Op = 5
	// OpError is a response-only frame carrying a typed refusal.
	OpError Op = 6
)

// String names an opcode for diagnostics.
func (o Op) String() string {
	switch o {
	case OpPing:
		return "ping"
	case OpUnicast:
		return "unicast"
	case OpBatch:
		return "batch"
	case OpFeasibility:
		return "feasibility"
	case OpFaultDelta:
		return "fault-delta"
	case OpError:
		return "error"
	default:
		return fmt.Sprintf("op(%d)", uint8(o))
	}
}

// Flags qualify a frame.
type Flags uint8

// FlagResponse marks server→client frames; requests leave it clear.
const FlagResponse Flags = 1 << 0

// Header is the parsed fixed frame header.
//
//	offset size field
//	0      4    magic "SLW1"
//	4      1    major version
//	5      1    minor version
//	6      1    opcode
//	7      1    flags (bit0: response)
//	8      8    request ID
//	16     4    payload length
type Header struct {
	Major uint8
	Minor uint8
	Op    Op
	Flags Flags
	ReqID uint64
	Len   uint32
}

// Framing errors. ErrVersion is the typed clean-degrade signal a v1
// client receives from a server that no longer (or does not yet)
// serves its version.
var (
	ErrMagic    = errors.New("wire: bad frame magic")
	ErrVersion  = errors.New("wire: unsupported protocol version")
	ErrTooLarge = errors.New("wire: payload length exceeds limit")
	ErrShort    = errors.New("wire: short payload")
	ErrClosed   = errors.New("wire: connection closed")
)

// Typed server refusals, decoded from Error frames. They mirror the
// serving engine's taxonomy one-to-one so a wire client classifies
// outcomes exactly like an in-process caller (loadgen.Classify).
var (
	ErrOverload   = errors.New("wire: overloaded, request shed")
	ErrBacklog    = errors.New("wire: churn queue full")
	ErrDraining   = errors.New("wire: server draining")
	ErrDeadline   = errors.New("wire: deadline exceeded")
	ErrCanceled   = errors.New("wire: request canceled")
	ErrBadRequest = errors.New("wire: bad request")
	ErrUnknownOp  = errors.New("wire: unknown opcode")
	ErrInternal   = errors.New("wire: internal server error")
)

// ErrCode is the numeric refusal taxonomy carried by Error frames.
type ErrCode uint16

const (
	// CodeBadRequest: the payload failed validation (node out of range,
	// malformed batch, short payload).
	CodeBadRequest ErrCode = 1
	// CodeOverload: shed by GCRA admission control (HTTP 429).
	CodeOverload ErrCode = 2
	// CodeBacklog: churn refused by a full apply queue (writer-side
	// backpressure).
	CodeBacklog ErrCode = 3
	// CodeDraining: the server is shutting down (HTTP 503).
	CodeDraining ErrCode = 4
	// CodeDeadline: the request's deadline budget expired (HTTP 504).
	CodeDeadline ErrCode = 5
	// CodeCanceled: the request context was canceled (HTTP 499).
	CodeCanceled ErrCode = 6
	// CodeVersion: the server does not serve the client's protocol
	// version; the message carries the server's own version.
	CodeVersion ErrCode = 7
	// CodeTooLarge: the request payload exceeded the server's limit.
	CodeTooLarge ErrCode = 8
	// CodeUnknownOp: the opcode is not served at this version.
	CodeUnknownOp ErrCode = 9
	// CodeInternal: anything else.
	CodeInternal ErrCode = 10
)

// Err maps a code to its typed sentinel, so errors.Is works across the
// wire exactly like in process.
func (c ErrCode) Err() error {
	switch c {
	case CodeBadRequest:
		return ErrBadRequest
	case CodeOverload:
		return ErrOverload
	case CodeBacklog:
		return ErrBacklog
	case CodeDraining:
		return ErrDraining
	case CodeDeadline:
		return ErrDeadline
	case CodeCanceled:
		return ErrCanceled
	case CodeVersion:
		return ErrVersion
	case CodeTooLarge:
		return ErrTooLarge
	case CodeUnknownOp:
		return ErrUnknownOp
	default:
		return ErrInternal
	}
}

// PutHeader writes h into b[:HeaderSize]. b must hold HeaderSize bytes.
func PutHeader(b []byte, h Header) {
	binary.LittleEndian.PutUint32(b[0:], Magic)
	b[4] = h.Major
	b[5] = h.Minor
	b[6] = uint8(h.Op)
	b[7] = uint8(h.Flags)
	binary.LittleEndian.PutUint64(b[8:], h.ReqID)
	binary.LittleEndian.PutUint32(b[16:], h.Len)
}

// ParseHeader decodes b[:HeaderSize], checking only the magic — version
// acceptance is the caller's policy (servers refuse with CodeVersion,
// clients with ErrVersion), so a parse failure always means the stream
// is not speaking this protocol at all.
func ParseHeader(b []byte) (Header, error) {
	if len(b) < HeaderSize {
		return Header{}, ErrShort
	}
	if binary.LittleEndian.Uint32(b[0:]) != Magic {
		return Header{}, ErrMagic
	}
	return Header{
		Major: b[4],
		Minor: b[5],
		Op:    Op(b[6]),
		Flags: Flags(b[7]),
		ReqID: binary.LittleEndian.Uint64(b[8:]),
		Len:   binary.LittleEndian.Uint32(b[16:]),
	}, nil
}

// bufPool recycles frame buffers across requests; boxPool recycles the
// *[]byte header boxes bufPool entries are carried in, so a warm
// Get/Put cycle allocates nothing at all — not even the 24-byte slice
// header a naive `bufPool.Put(&b)` would heap-allocate per call.
var (
	bufPool sync.Pool // *[]byte with live backing arrays
	boxPool sync.Pool // *[]byte boxes whose slice is nil
)

// GetBuf returns a pooled frame buffer with length 0.
func GetBuf() []byte {
	bp, _ := bufPool.Get().(*[]byte)
	if bp == nil {
		return make([]byte, 0, 512)
	}
	b := (*bp)[:0]
	*bp = nil
	boxPool.Put(bp)
	return b
}

// PutBuf recycles a buffer obtained from GetBuf (or grown from one).
func PutBuf(b []byte) {
	if cap(b) == 0 {
		return
	}
	bp, _ := boxPool.Get().(*[]byte)
	if bp == nil {
		bp = new([]byte)
	}
	*bp = b[:0]
	bufPool.Put(bp)
}

// AppendFrame appends a complete frame — header stamped with this
// package's version and the payload's length, then the payload — to b
// and returns the extended slice. Both sides encode every frame through
// it, with the payload built by the message appenders in messages.go,
// except a server's batch response, whose routes AppendBatchRespFrame
// lets it append straight after the frame header.
func AppendFrame(b []byte, op Op, flags Flags, reqID uint64, payload []byte) []byte {
	b = appendFrameHeader(b, op, flags, reqID, len(payload))
	return append(b, payload...)
}

// appendFrameHeader appends the header AppendFrame stamps on a payload
// of size bytes.
func appendFrameHeader(b []byte, op Op, flags Flags, reqID uint64, size int) []byte {
	var hdr [HeaderSize]byte
	PutHeader(hdr[:], Header{
		Major: Major, Minor: Minor,
		Op: op, Flags: flags, ReqID: reqID,
		Len: uint32(size),
	})
	return append(b, hdr[:]...)
}

// ReadFrame reads one frame from r: the fixed header, then exactly
// Len payload bytes into buf (grown if needed, reused otherwise). It
// refuses a payload length beyond maxPayload BEFORE reading or
// allocating anything for it — the defense FuzzWireDecode pins. The
// returned slice aliases buf; the second return is the (possibly
// grown) backing buffer to keep for the next call.
func ReadFrame(r io.Reader, buf []byte, maxPayload int) (Header, []byte, []byte, error) {
	if maxPayload <= 0 {
		maxPayload = DefaultMaxPayload
	}
	// The header is read into the reusable buffer (not a local array,
	// which would escape through the io.Reader interface and cost one
	// heap allocation per frame); the payload then overwrites it.
	if cap(buf) < HeaderSize {
		buf = make([]byte, 0, 512)
	}
	if _, err := io.ReadFull(r, buf[:HeaderSize]); err != nil {
		return Header{}, nil, buf, err
	}
	h, err := ParseHeader(buf[:HeaderSize])
	if err != nil {
		return Header{}, nil, buf, err
	}
	if int64(h.Len) > int64(maxPayload) {
		return h, nil, buf, fmt.Errorf("%w: %d > %d", ErrTooLarge, h.Len, maxPayload)
	}
	n := int(h.Len)
	if cap(buf) < n {
		buf = make([]byte, n)
	}
	buf = buf[:cap(buf)]
	if _, err := io.ReadFull(r, buf[:n]); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return h, nil, buf, err
	}
	return h, buf[:n], buf, nil
}
