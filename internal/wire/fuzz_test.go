package wire

import (
	"bytes"
	"errors"
	"io"
	"runtime"
	"testing"
)

// FuzzWireDecode hardens the full server-side decode surface against a
// hostile stream: arbitrary bytes are framed-read and every opcode's
// parser is run over whatever payload survives. The invariants are the
// CI contract — a malformed, truncated or oversize input must come
// back as an error, never a panic, and never an allocation sized by
// attacker-controlled length fields.
func FuzzWireDecode(f *testing.F) {
	// Seed with every pinned golden frame, their truncations, and the
	// classic hostile shapes.
	for _, frame := range goldenFrames() {
		f.Add(frame)
		if len(frame) > 2 {
			f.Add(frame[:len(frame)/2])
		}
	}
	f.Add([]byte{})
	f.Add([]byte("GET / HTTP/1.1\r\n")) // wrong protocol entirely
	// Oversize length field: header claims 2^30 payload bytes.
	var huge [HeaderSize]byte
	PutHeader(huge[:], Header{Major: Major, Minor: Minor, Op: OpBatch, ReqID: 1, Len: 1 << 30})
	f.Add(huge[:])
	// Batch that declares more pairs than it carries.
	lying := AppendBatchReq(nil, 0, []Pair{{1, 2}})
	lying[4] = 0xFF
	f.Add(AppendFrame(nil, OpBatch, 0, 2, lying))
	// Error frame whose detail length overruns the payload.
	badErr := AppendError(nil, CodeInternal, "x")
	badErr[2] = 0xFF
	f.Add(AppendFrame(nil, OpError, FlagResponse, 3, badErr))

	const maxPayload = 1 << 16

	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)

		r := bytes.NewReader(data)
		buf := make([]byte, 0, 512)
		for {
			h, payload, nbuf, err := ReadFrame(r, buf, maxPayload)
			buf = nbuf
			if err != nil {
				// Any error is acceptable; io.EOF just means the stream
				// ended cleanly between frames.
				if errors.Is(err, ErrTooLarge) && h.Len <= maxPayload {
					t.Fatalf("ErrTooLarge for in-bounds length %d", h.Len)
				}
				break
			}
			if int(h.Len) != len(payload) {
				t.Fatalf("header len %d != payload %d", h.Len, len(payload))
			}
			// Run every parser the opcode could dispatch to; each must
			// return cleanly. Request and response shapes share opcodes,
			// so both directions are exercised regardless of FlagResponse.
			switch h.Op {
			case OpPing:
				_, _ = ParsePingResp(payload)
			case OpUnicast:
				_, _ = ParseUnicastReq(payload)
				_, _ = ParseUnicastResp(payload)
			case OpBatch:
				_, pairs, err := ParseBatchReq(payload, nil, DefaultMaxPayload)
				if err == nil && len(pairs)*pairSize+batchReqMin != len(payload) {
					t.Fatalf("batch req size drift: %d pairs from %d bytes", len(pairs), len(payload))
				}
				_, _, _ = ParseBatchResp(payload, nil)
			case OpFeasibility:
				_, _ = ParseFeasReq(payload)
				_, _ = ParseFeasResp(payload)
			case OpFaultDelta:
				_, _ = ParseFaultReq(payload)
				_, _ = ParseFaultResp(payload)
			case OpError:
				_, _, _ = ParseError(payload)
			}
		}

		runtime.ReadMemStats(&after)
		// The whole walk must allocate O(maxPayload), regardless of what
		// the length fields claim: 8 MiB is over two orders of magnitude
		// above any honest per-iteration cost, and far under the 1 GiB a
		// trusted length field would have bought.
		if delta := after.TotalAlloc - before.TotalAlloc; delta > 8<<20 {
			t.Fatalf("decode of %d input bytes allocated %d bytes", len(data), delta)
		}
	})
}

// TestFuzzSeedsClean runs the committed corpus invariants directly so
// `go test` (not just `go test -fuzz`) exercises them; the corpus files
// under testdata/fuzz/FuzzWireDecode are replayed by the fuzz target
// automatically.
func TestFuzzSeedsClean(t *testing.T) {
	for name, frame := range goldenFrames() {
		h, payload, _, err := ReadFrame(bytes.NewReader(frame), nil, 0)
		if err != nil {
			t.Errorf("seed %s: %v", name, err)
			continue
		}
		if int(h.Len) != len(payload) {
			t.Errorf("seed %s: len %d != payload %d", name, h.Len, len(payload))
		}
	}
	// A lone truncated header errors without reading past the stream.
	if _, _, _, err := ReadFrame(bytes.NewReader([]byte{0x53, 0x4C}), nil, 0); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("truncated magic: %v", err)
	}
}
