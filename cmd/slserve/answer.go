package main

import (
	"encoding/json"
	"net/http"
	"strconv"
	"sync"

	safecube "repro"
)

// The route answers (/route, /batch, /routeall) and the /fault
// acknowledgement are appended by hand into a pooled buffer. The bytes
// are exactly those json.NewEncoder with SetIndent("", "  ") writes for
// the same values, which answer_test.go checks: top-level keys in
// sorted order, the route fields in the order src, dst, outcome,
// condition, distance, hops, path, err with the last two omitted when
// empty, two-space indentation and a trailing newline. Addresses go in
// through Cube.AppendFormat, so an answer allocates nothing of its own
// once its buffer has grown. The cold endpoints keep writeJSON.

// maxPooledAnswer caps the buffers returned to answerPool, so one large
// /batch or /routeall does not keep its buffer alive.
const maxPooledAnswer = 64 << 10

var answerPool = sync.Pool{New: func() any { return new(answer) }}

// answer is one pooled answer buffer.
type answer struct{ b []byte }

func newAnswer() *answer {
	a := answerPool.Get().(*answer)
	a.b = a.b[:0]
	return a
}

// send writes the answer as writeJSON would, with its status code, and
// returns the buffer to the pool.
func (a *answer) send(w http.ResponseWriter, code int) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_, _ = w.Write(a.b)
	if cap(a.b) <= maxPooledAnswer {
		answerPool.Put(a)
	}
}

// indent holds the indentation of the deepest line an answer writes:
// a path hop inside a route inside a routes array.
const indent = "        "

// newline starts a line indented to depth.
func newline(b []byte, depth int) []byte {
	b = append(b, '\n')
	return append(b, indent[:2*depth]...)
}

// appendKey starts an object member on a new line at depth; every
// member but an object's first follows a comma.
func appendKey(b []byte, depth int, first bool, key string) []byte {
	if !first {
		b = append(b, ',')
	}
	b = newline(b, depth)
	b = append(b, '"')
	b = append(b, key...)
	return append(b, `": `...)
}

// appendString appends s as a JSON string. Plain printable ASCII other
// than the characters encoding/json escapes goes in as is; anything
// else (only ever an err text) is encoded by encoding/json, so its
// escaping, HTML-safe included, is unchanged.
func appendString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x7f || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s)
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// appendAddr appends a node address, which is digits and dots only.
func appendAddr(b []byte, c *safecube.Cube, a safecube.NodeID) []byte {
	b = append(b, '"')
	b = c.AppendFormat(b, a)
	return append(b, '"')
}

// appendRoute appends r as the route object of an answer, its closing
// brace at depth.
func appendRoute(b []byte, c *safecube.Cube, r *safecube.Route, depth int) []byte {
	d := depth + 1
	b = append(b, '{')
	b = appendKey(b, d, true, "src")
	b = appendAddr(b, c, r.Source)
	b = appendKey(b, d, false, "dst")
	b = appendAddr(b, c, r.Dest)
	b = appendKey(b, d, false, "outcome")
	b = appendString(b, r.Outcome.String())
	b = appendKey(b, d, false, "condition")
	b = appendString(b, r.Condition.String())
	b = appendKey(b, d, false, "distance")
	b = strconv.AppendInt(b, int64(r.Hamming), 10)
	b = appendKey(b, d, false, "hops")
	b = strconv.AppendInt(b, int64(r.Hops()), 10)
	if len(r.Path) > 0 {
		b = appendKey(b, d, false, "path")
		b = append(b, '[')
		for i, a := range r.Path {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendAddr(newline(b, d+1), c, a)
		}
		b = append(newline(b, d), ']')
	}
	if r.Err != nil {
		if msg := r.Err.Error(); msg != "" {
			b = appendKey(b, d, false, "err")
			b = appendString(b, msg)
		}
	}
	return append(newline(b, depth), '}')
}

// appendRoutes appends the non-nil routes as the top-level "routes"
// array.
func appendRoutes(b []byte, c *safecube.Cube, routes []*safecube.Route) []byte {
	b = appendKey(b, 1, false, "routes")
	b = append(b, '[')
	n := 0
	for _, r := range routes {
		if r == nil {
			continue
		}
		if n > 0 {
			b = append(b, ',')
		}
		b = appendRoute(newline(b, 2), c, r, 2)
		n++
	}
	if n > 0 {
		b = newline(b, 1)
	}
	return append(b, ']')
}

// appendRouteAnswer appends the /route answer: the route, its flight
// request ID and the generation it was routed on.
func appendRouteAnswer(b []byte, c *safecube.Cube, r *safecube.Route) []byte {
	b = appendKey(append(b, '{'), 1, true, "generation")
	b = strconv.AppendUint(b, r.Generation, 10)
	b = appendKey(b, 1, false, "request_id")
	b = strconv.AppendUint(b, r.RequestID, 10)
	b = appendKey(b, 1, false, "route")
	b = appendRoute(b, c, r, 1)
	return append(b, "\n}\n"...)
}

// appendBatchAnswer appends the /batch answer: the routes in request
// order and the generation of the snapshot they were routed on.
func appendBatchAnswer(b []byte, c *safecube.Cube, gen uint64, routes []*safecube.Route) []byte {
	b = appendKey(append(b, '{'), 1, true, "generation")
	b = strconv.AppendUint(b, gen, 10)
	b = appendRoutes(b, c, routes)
	return append(b, "\n}\n"...)
}

// appendRouteAllAnswer appends the /routeall answer: every route of the
// fan-out (the source's nil slot skipped), how many were delivered, and
// the generation they were routed on.
func appendRouteAllAnswer(b []byte, c *safecube.Cube, gen uint64, routes []*safecube.Route) []byte {
	delivered := 0
	for _, r := range routes {
		if r != nil && r.Outcome != safecube.Failure {
			delivered++
		}
	}
	b = appendKey(append(b, '{'), 1, true, "delivered")
	b = strconv.AppendInt(b, int64(delivered), 10)
	b = appendKey(b, 1, false, "generation")
	b = strconv.AppendUint(b, gen, 10)
	b = appendRoutes(b, c, routes)
	return append(b, "\n}\n"...)
}

// appendFaultAck appends the /fault acknowledgement.
func appendFaultAck(b []byte, gen uint64, queueDepth int) []byte {
	b = appendKey(append(b, '{'), 1, true, "generation")
	b = strconv.AppendUint(b, gen, 10)
	b = appendKey(b, 1, false, "queue_depth")
	b = strconv.AppendInt(b, int64(queueDepth), 10)
	b = appendKey(b, 1, false, "queued")
	return append(b, "true\n}\n"...)
}
