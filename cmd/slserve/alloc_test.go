package main

import (
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	safecube "repro"
)

// nullWriter is a ResponseWriter that keeps nothing but the status, so
// the handler's own allocations are all that is counted.
type nullWriter struct {
	h    http.Header
	code int
}

func (w *nullWriter) Header() http.Header         { return w.h }
func (w *nullWriter) Write(p []byte) (int, error) { return len(p), nil }
func (w *nullWriter) WriteHeader(code int)        { w.code = code }

// routeHandler builds slserve's handler over Q10 with 12 faults, the
// flight recorder on and the -deadline default, and a /route request
// for a 9-hop optimal pair (a detour or failure would be promoted as an
// incident, which allocates by design).
func routeHandler(tb testing.TB) (http.Handler, *http.Request) {
	tb.Helper()
	c := safecube.MustNew(10)
	if err := c.InjectRandomFaults(12, 12); err != nil {
		tb.Fatal(err)
	}
	reg := safecube.NewRegistry()
	srv, err := c.Serve(safecube.ServeOptions{Registry: reg})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(srv.Close)
	if srv.Flight() == nil {
		tb.Fatal("flight recorder off")
	}
	for s := 0; s < c.Nodes(); s++ {
		d := safecube.NodeID(s) ^ 0x1ff
		if r := c.Unicast(safecube.NodeID(s), d); r.Outcome == safecube.Optimal && r.Hops() == 9 {
			url := "/route?src=" + c.Format(safecube.NodeID(s)) + "&dst=" + c.Format(d)
			return newHandler(srv, c, reg, handlerOpts{queueCap: 64, deadline: 5 * time.Second}), httptest.NewRequest(http.MethodGet, url, nil)
		}
	}
	tb.Fatal("no 9-hop optimal pair")
	return nil, nil
}

// TestRouteHandlerAllocs pins the allocations of one /route request
// through the real handler: query parse, deadline context, the walk,
// the facade's copy and the answer, which allocates nothing of its own
// once its pooled buffer has grown.
func TestRouteHandlerAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	h, req := routeHandler(t)
	w := &nullWriter{h: http.Header{}}
	allocs := testing.AllocsPerRun(200, func() { h.ServeHTTP(w, req) })
	if w.code != http.StatusOK {
		t.Fatalf("status %d", w.code)
	}
	if allocs > 16 {
		t.Fatalf("/route allocates %.1f times per request, want at most 16", allocs)
	}
	t.Logf("/route: %.1f allocations per request", allocs)
}

// BenchmarkServeSlserveRoute measures slserve's own /route handler in
// process, without a socket: the cost HTTP adds over RouteCtx that is
// slserve's, not net/http's.
func BenchmarkServeSlserveRoute(b *testing.B) {
	h, req := routeHandler(b)
	w := &nullWriter{h: http.Header{}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.ServeHTTP(w, req)
	}
	if w.code != http.StatusOK {
		b.Fatalf("status %d", w.code)
	}
}
