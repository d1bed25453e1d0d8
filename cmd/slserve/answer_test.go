package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	safecube "repro"
)

// refRoute and refRouteOf are the route object as slserve encoded it
// with encoding/json before the answers were appended by hand; with
// refEncode they are the reference the appender must match byte for
// byte.
type refRoute struct {
	Src       string   `json:"src"`
	Dst       string   `json:"dst"`
	Outcome   string   `json:"outcome"`
	Condition string   `json:"condition"`
	Distance  int      `json:"distance"`
	Hops      int      `json:"hops"`
	Path      []string `json:"path,omitempty"`
	Err       string   `json:"err,omitempty"`
}

func refRouteOf(r *safecube.Route, cube *safecube.Cube) refRoute {
	out := refRoute{
		Src:       cube.Format(r.Source),
		Dst:       cube.Format(r.Dest),
		Outcome:   r.Outcome.String(),
		Condition: r.Condition.String(),
		Distance:  r.Hamming,
		Hops:      r.Hops(),
	}
	for _, a := range r.Path {
		out.Path = append(out.Path, cube.Format(a))
	}
	if r.Err != nil {
		out.Err = r.Err.Error()
	}
	return out
}

// refRoutes is the "routes" array of the reference: the non-nil routes,
// never a nil slice, so an empty one encodes as [].
func refRoutes(routes []*safecube.Route, cube *safecube.Cube) []refRoute {
	out := make([]refRoute, 0, len(routes))
	for _, r := range routes {
		if r != nil {
			out = append(out, refRouteOf(r, cube))
		}
	}
	return out
}

func refEncode(t *testing.T, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func refRouteAnswer(t *testing.T, r *safecube.Route, cube *safecube.Cube) []byte {
	return refEncode(t, map[string]any{
		"generation": r.Generation,
		"request_id": r.RequestID,
		"route":      refRouteOf(r, cube),
	})
}

func refBatchAnswer(t *testing.T, gen uint64, routes []*safecube.Route, cube *safecube.Cube) []byte {
	return refEncode(t, map[string]any{
		"generation": gen,
		"routes":     refRoutes(routes, cube),
	})
}

func refRouteAllAnswer(t *testing.T, gen uint64, routes []*safecube.Route, cube *safecube.Cube) []byte {
	delivered := 0
	for _, r := range routes {
		if r != nil && r.Outcome != safecube.Failure {
			delivered++
		}
	}
	return refEncode(t, map[string]any{
		"generation": gen,
		"delivered":  delivered,
		"routes":     refRoutes(routes, cube),
	})
}

// answerCase is one topology the answer tests run on, with a sample of
// its routes: failures, faulty-source and out-of-range err routes
// included, and detours where the topology has room for one.
type answerCase struct {
	name    string
	cube    *safecube.Cube
	routes  []*safecube.Route
	detours bool
}

func answerCases(t *testing.T) []answerCase {
	t.Helper()
	q10 := safecube.MustNew(10)
	if err := q10.InjectRandomFaults(5, 40); err != nil {
		t.Fatal(err)
	}
	gh := safecube.MustNewGeneralized(3, 2, 4, 3)
	if err := gh.FailNamed("0100", "1210", "2301", "0211", "1001", "2110", "0001", "0010", "0200", "1000", "2000", "0300"); err != nil {
		t.Fatal(err)
	}
	wide := safecube.MustNewGeneralized(3, 12)
	if err := wide.FailNamed("0.1", "1.2", "5.0", "3.1", "9.2"); err != nil {
		t.Fatal(err)
	}
	var cases []answerCase
	// GH(12x3) has two dimensions, so no pair has a spare dimension to
	// detour through.
	for _, c := range []struct {
		name    string
		cube    *safecube.Cube
		step    int
		detours bool
	}{{"Q10", q10, 97, true}, {"GH(3x4x2x3)", gh, 1, true}, {"GH(12x3)", wide, 1, false}} {
		n := c.cube.Nodes()
		var routes []*safecube.Route
		for i := 0; i < n*n; i += c.step {
			routes = append(routes, c.cube.Unicast(safecube.NodeID(i/n), safecube.NodeID(i%n)))
		}
		// An endpoint outside the cube.
		routes = append(routes, c.cube.Unicast(0, safecube.NodeID(n+3)))
		cases = append(cases, answerCase{c.name, c.cube, routes, c.detours})
	}
	return cases
}

// checkKinds fails unless the case's routes hold every kind of answer
// the comparison must cover.
func checkKinds(t *testing.T, ac answerCase) {
	t.Helper()
	var optimal, suboptimal, failure, errs bool
	for _, r := range ac.routes {
		switch {
		case r.Err != nil:
			errs = true
		case r.Outcome == safecube.Failure:
			failure = true
		case r.Outcome == safecube.Suboptimal:
			suboptimal = true
		default:
			optimal = true
		}
	}
	if !optimal || suboptimal != ac.detours || !failure || !errs {
		t.Fatalf("%s: sample lacks a kind of answer (optimal %v, suboptimal %v, failure %v, err %v)",
			ac.name, optimal, suboptimal, failure, errs)
	}
}

// TestAnswersMatchEncodingJSON pins the hand-written answers to the
// encoding/json reference byte for byte: /route, /batch (empty ones
// included), /routeall and the /fault acknowledgement, over Q10 with 40
// faults, GH(3x4x2x3) and the dotted addresses of GH(12x3), with
// optimal, suboptimal, failed, faulty-source and out-of-range routes,
// and err texts that encoding/json must escape.
func TestAnswersMatchEncodingJSON(t *testing.T) {
	compared := 0
	check := func(what string, got, want []byte) {
		t.Helper()
		compared++
		if !bytes.Equal(got, want) {
			t.Fatalf("%s:\n got %q\nwant %q", what, got, want)
		}
	}
	for _, ac := range answerCases(t) {
		checkKinds(t, ac)
		c := ac.cube
		// Err texts with each character encoding/json escapes, one per
		// text, and an empty one, which is omitted.
		for _, msg := range []string{"a & b", "a < b", "a > b", `say "hi"`, `back\slash`, "tab\there", "del\x7f", "ünïcode \u2028", ""} {
			r := *ac.routes[0]
			r.Err = errors.New(msg)
			ac.routes = append(ac.routes, &r)
		}
		for i, r := range ac.routes {
			r.Generation, r.RequestID = uint64(i*7919), uint64(i)<<40|uint64(i)
			check(fmt.Sprintf("%s /route %d", ac.name, i), appendRouteAnswer(nil, c, r), refRouteAnswer(t, r, c))
		}
		for _, k := range []int{0, 1, 7, 64} {
			for off := 0; off+k <= len(ac.routes) && off < 40*k+1; off += k + 1 {
				batch := ac.routes[off : off+k]
				gen := uint64(off + k)
				check(fmt.Sprintf("%s /batch %d+%d", ac.name, off, k), appendBatchAnswer(nil, c, gen, batch), refBatchAnswer(t, gen, batch, c))
			}
		}
		// A fan-out, with the source's nil slot.
		all := append([]*safecube.Route{nil}, ac.routes[:min(len(ac.routes), 300)]...)
		check(ac.name+" /routeall", appendRouteAllAnswer(nil, c, 12, all), refRouteAllAnswer(t, 12, all, c))
		check(ac.name+" empty /routeall", appendRouteAllAnswer(nil, c, 3, []*safecube.Route{nil}), refRouteAllAnswer(t, 3, []*safecube.Route{nil}, c))
	}
	for _, gen := range []uint64{0, 1, 1<<64 - 1} {
		for _, depth := range []int{0, 63} {
			check(fmt.Sprintf("/fault %d %d", gen, depth), appendFaultAck(nil, gen, depth), refEncode(t, map[string]any{
				"queued": true, "generation": gen, "queue_depth": depth,
			}))
		}
	}
	if empty := appendBatchAnswer(nil, safecube.MustNew(2), 4, nil); !bytes.Contains(empty, []byte(`"routes": []`)) {
		t.Fatalf("empty batch answer %q has no empty routes array", empty)
	}
	t.Logf("%d answers compared", compared)
}

// param renders a for a query parameter, and reports whether Parse
// reads it back as a; the address of a node outside the cube does not.
func param(c *safecube.Cube, a safecube.NodeID) (string, bool) {
	s := c.Format(a)
	b, err := c.Parse(s)
	return s, err == nil && b == a
}

// TestHandlerAnswersMatchEncodingJSON drives the real handler on each
// topology and checks that every route answer it writes is what
// encoding/json writes for the same values, and that the values are the
// facade's own: decoding the body and re-encoding it with the reference
// reproduces it byte for byte, status code and Content-Type as before.
func TestHandlerAnswersMatchEncodingJSON(t *testing.T) {
	for _, ac := range answerCases(t) {
		c := ac.cube
		reg := safecube.NewRegistry()
		srv, err := c.Serve(safecube.ServeOptions{Registry: reg})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(srv.Close)
		h := newHandler(srv, c, reg, handlerOpts{queueCap: 64})
		get := func(url string, code int) []byte {
			t.Helper()
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, url, nil))
			if rec.Code != code || rec.Header().Get("Content-Type") != "application/json" {
				t.Fatalf("%s %s: status %d, Content-Type %q", ac.name, url, rec.Code, rec.Header().Get("Content-Type"))
			}
			return rec.Body.Bytes()
		}
		// reencode decodes body's keys into the reference shape and fails
		// unless encoding/json writes the same bytes for them.
		reencode := func(url string, body []byte, keys ...string) {
			t.Helper()
			var raw map[string]json.RawMessage
			if err := json.Unmarshal(body, &raw); err != nil {
				t.Fatalf("%s %s: %v", ac.name, url, err)
			}
			m := map[string]any{}
			for _, k := range keys {
				var v any
				switch k {
				case "route":
					v = new(refRoute)
				case "routes":
					v = new([]refRoute)
				case "queued":
					v = new(bool)
				default:
					v = new(uint64)
				}
				if err := json.Unmarshal(raw[k], v); err != nil {
					t.Fatalf("%s %s: key %s: %v", ac.name, url, k, err)
				}
				m[k] = v
			}
			if ref := refEncode(t, m); !bytes.Equal(body, ref) {
				t.Fatalf("%s %s:\n got %q\nwant %q", ac.name, url, body, ref)
			}
		}
		var pairs []string
		faulty := 0
		for i, want := range ac.routes {
			src, ok1 := param(c, want.Source)
			dst, ok2 := param(c, want.Dest)
			if !ok1 || !ok2 || (i%16 != 0 && want.Err == nil) {
				continue
			}
			url := "/route?src=" + src + "&dst=" + dst
			body := get(url, http.StatusOK)
			reencode(url, body, "generation", "request_id", "route")
			var v struct {
				Route refRoute `json:"route"`
			}
			if err := json.Unmarshal(body, &v); err != nil {
				t.Fatal(err)
			}
			if w := refRouteOf(want, c); !reflect.DeepEqual(v.Route, w) {
				t.Fatalf("%s %s: %+v, want %+v", ac.name, url, v.Route, w)
			}
			if want.Err != nil {
				faulty++
			} else if len(pairs) < 64 {
				pairs = append(pairs, src+"-"+dst)
			}
		}
		if faulty == 0 {
			t.Fatalf("%s: no faulty-source route went through the handler", ac.name)
		}
		for _, url := range []string{"/batch?pairs=" + strings.Join(pairs, ","), "/batch?pairs=,"} {
			reencode(url, get(url, http.StatusOK), "generation", "routes")
		}
		src, _ := param(c, 0)
		url := "/routeall?src=" + src
		reencode(url, get(url, http.StatusOK), "delivered", "generation", "routes")
		a, _ := param(c, 1)
		url = "/fault?op=fail-node&a=" + a
		reencode(url, get(url, http.StatusAccepted), "generation", "queue_depth", "queued")
	}
}
