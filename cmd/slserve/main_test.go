package main

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	safecube "repro"
	"repro/internal/monitor"
)

// testServer spins up the full handler over a Q4 with fixed faults.
func testServer(t *testing.T) (*httptest.Server, *safecube.Cube) {
	return testServerOpts(t, safecube.ServeOptions{QueueDepth: 8}, handlerOpts{queueCap: 8})
}

// testServerOpts is testServer with explicit engine and handler
// options, for the hardening tests.
func testServerOpts(t *testing.T, sopts safecube.ServeOptions, hopts handlerOpts) (*httptest.Server, *safecube.Cube) {
	t.Helper()
	c := safecube.MustNew(4)
	if err := c.FailNamed("0011", "1100"); err != nil {
		t.Fatal(err)
	}
	reg := safecube.NewRegistry()
	sopts.Registry = reg
	srv, err := c.Serve(sopts)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(newHandler(srv, c, reg, hopts))
	t.Cleanup(func() { ts.Close(); srv.Close() })
	return ts, c
}

func getJSON(t *testing.T, url string, wantCode int) map[string]any {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantCode {
		t.Fatalf("GET %s: status %d, want %d", url, resp.StatusCode, wantCode)
	}
	var v map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatalf("GET %s: bad JSON: %v", url, err)
	}
	return v
}

func TestRouteEndpoint(t *testing.T) {
	ts, c := testServer(t)
	v := getJSON(t, ts.URL+"/route?src=0000&dst=1111", http.StatusOK)
	route := v["route"].(map[string]any)
	want := c.Unicast(c.MustParse("0000"), c.MustParse("1111"))
	if route["outcome"] != want.Outcome.String() {
		t.Fatalf("outcome %v, want %v", route["outcome"], want.Outcome)
	}
	if int(route["distance"].(float64)) != want.Hamming {
		t.Fatalf("distance %v, want %d", route["distance"], want.Hamming)
	}
	if int(route["hops"].(float64)) != want.Hops() {
		t.Fatalf("hops %v, want %d", route["hops"], want.Hops())
	}
	if path := route["path"].([]any); len(path) != len(want.Path) {
		t.Fatalf("path length %d, want %d", len(path), len(want.Path))
	} else if len(path) > 0 && path[0] != "0000" {
		t.Fatalf("path starts at %v, want 0000", path[0])
	}

	// Bad requests: missing and malformed parameters.
	getJSON(t, ts.URL+"/route?src=0000", http.StatusBadRequest)
	getJSON(t, ts.URL+"/route?src=0000&dst=banana", http.StatusBadRequest)
}

func TestBatchEndpoint(t *testing.T) {
	ts, c := testServer(t)
	v := getJSON(t, ts.URL+"/batch?pairs=0000-1111,0001-1110", http.StatusOK)
	routes := v["routes"].([]any)
	if len(routes) != 2 {
		t.Fatalf("batch returned %d routes, want 2", len(routes))
	}
	first := routes[0].(map[string]any)
	if first["src"] != "0000" || first["dst"] != "1111" {
		t.Fatalf("batch order broken: %v", first)
	}
	want := c.Unicast(c.MustParse("0001"), c.MustParse("1110"))
	second := routes[1].(map[string]any)
	if second["outcome"] != want.Outcome.String() {
		t.Fatalf("second outcome %v, want %v", second["outcome"], want.Outcome)
	}
	getJSON(t, ts.URL+"/batch?pairs=0000+1111", http.StatusBadRequest)
	getJSON(t, ts.URL+"/batch", http.StatusBadRequest)
}

// TestBatchEndpointLimit checks that /batch shares the wire surface's
// pair limit: MaxBatchPairs pairs are served, one more is refused with
// 413 before any routing.
func TestBatchEndpointLimit(t *testing.T) {
	ts, _ := testServer(t)
	pairs := func(k int) string {
		return strings.TrimSuffix(strings.Repeat("0000-1111,", k), ",")
	}
	v := getJSON(t, ts.URL+"/batch?pairs="+pairs(safecube.MaxBatchPairs), http.StatusOK)
	if got := len(v["routes"].([]any)); got != safecube.MaxBatchPairs {
		t.Fatalf("batch of %d pairs returned %d routes", safecube.MaxBatchPairs, got)
	}
	getJSON(t, ts.URL+"/batch?pairs="+pairs(safecube.MaxBatchPairs+1), http.StatusRequestEntityTooLarge)
}

// TestHTTPListenerTimeouts checks the listener hardening on a :0 port:
// a client that sends part of a request line and stalls is disconnected
// once the header timeout passes, a keep-alive connection left idle is
// closed after the idle timeout, and the server's goroutine count
// returns to its baseline. The server is slserve's own (newHTTPServer);
// only its two timeouts are shortened, so the test takes well under a
// second instead of minutes.
func TestHTTPListenerTimeouts(t *testing.T) {
	c := safecube.MustNew(4)
	reg := safecube.NewRegistry()
	srv, err := c.Serve(safecube.ServeOptions{Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	hs := newHTTPServer("", newHandler(srv, c, reg, handlerOpts{queueCap: 8}))
	if hs.ReadHeaderTimeout != httpReadHeaderTimeout || hs.IdleTimeout != httpIdleTimeout {
		t.Fatalf("listener timeouts %v/%v, want %v/%v",
			hs.ReadHeaderTimeout, hs.IdleTimeout, httpReadHeaderTimeout, httpIdleTimeout)
	}
	const short = 200 * time.Millisecond
	hs.ReadHeaderTimeout, hs.IdleTimeout = short, short
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	t.Cleanup(func() {
		hs.Close()
		<-served
	})
	base := runtime.NumGoroutine()

	// waitClosed reads until the server hangs up, failing if it has not
	// within a generous multiple of the timeout.
	waitClosed := func(what string, conn net.Conn, r io.Reader) {
		t.Helper()
		start := time.Now()
		conn.SetReadDeadline(start.Add(20 * short))
		if _, err := io.Copy(io.Discard, r); err != nil {
			t.Fatalf("%s: connection still open after %v: %v", what, time.Since(start), err)
		}
		if d := time.Since(start); d < short/2 {
			t.Fatalf("%s: closed after %v, before the %v timeout", what, d, short)
		}
	}

	stalled, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer stalled.Close()
	if _, err := stalled.Write([]byte("GET /healthz HT")); err != nil {
		t.Fatal(err)
	}
	waitClosed("partial request line", stalled, stalled)

	idle, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer idle.Close()
	if _, err := idle.Write([]byte("GET /healthz HTTP/1.1\r\nHost: slserve\r\n\r\n")); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(idle)
	resp, err := http.ReadResponse(br, nil)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}
	waitClosed("idle keep-alive connection", idle, br)

	for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > base; {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines %d, baseline %d", runtime.NumGoroutine(), base)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestHTTPAnswerAndRequestDeadlines checks the read and write deadlines
// on a :0 port: a client that pipelines large answers and never reads
// them, and a client that stalls in the middle of a request's body,
// are each disconnected within the shortened deadline, and the server's
// goroutine and in-flight counts return to their baselines. The
// defaults leave -pprof's 30 s CPU profile inside the write deadline.
func TestHTTPAnswerAndRequestDeadlines(t *testing.T) {
	c := safecube.MustNew(12)
	srv, err := c.Serve(safecube.ServeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	hs := newHTTPServer("", newHandler(srv, c, safecube.NewRegistry(), handlerOpts{queueCap: 8}))
	if hs.ReadTimeout != httpReadTimeout || hs.WriteTimeout != httpWriteTimeout {
		t.Fatalf("read and write timeouts %v/%v, want %v/%v", hs.ReadTimeout, hs.WriteTimeout, httpReadTimeout, httpWriteTimeout)
	}
	if httpWriteTimeout <= 30*time.Second {
		t.Fatalf("write timeout %v leaves no room for pprof's default 30s profile", httpWriteTimeout)
	}
	const short = 300 * time.Millisecond
	hs.ReadTimeout, hs.WriteTimeout = short, short
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	t.Cleanup(func() {
		hs.Close()
		<-served
	})
	base := runtime.NumGoroutine()
	settled := func(what string) {
		t.Helper()
		for deadline := time.Now().Add(10 * short); runtime.NumGoroutine() > base || srv.Inflight() != 0; {
			if time.Now().After(deadline) {
				t.Fatalf("%s: goroutines %d (baseline %d), in flight %d", what, runtime.NumGoroutine(), base, srv.Inflight())
			}
			time.Sleep(10 * time.Millisecond)
		}
	}

	// Sixteen pipelined Q12 fan-outs answer about 16 MB, far past what
	// the socket buffers hold while the client reads nothing.
	deaf, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer deaf.Close()
	deaf.(*net.TCPConn).SetReadBuffer(4096)
	req := "GET /routeall?src=000000000000 HTTP/1.1\r\nHost: slserve\r\n\r\n"
	if _, err := deaf.Write([]byte(strings.Repeat(req, 16))); err != nil {
		t.Fatal(err)
	}
	settled("client that never reads its answers")

	// A request that declares a body and sends half of it: the answer
	// goes out, and the server then waits on the rest of the body.
	stalled, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer stalled.Close()
	if _, err := stalled.Write([]byte("GET /healthz HTTP/1.1\r\nHost: slserve\r\nContent-Length: 100\r\n\r\n" + strings.Repeat("x", 50))); err != nil {
		t.Fatal(err)
	}
	stalled.SetReadDeadline(time.Now().Add(10 * short))
	if _, err := io.Copy(io.Discard, stalled); err != nil {
		t.Fatalf("stalled request: connection still open: %v", err)
	}
	settled("client stalled mid-request")
}

func TestRouteAllEndpoint(t *testing.T) {
	ts, _ := testServer(t)
	v := getJSON(t, ts.URL+"/routeall?src=0000", http.StatusOK)
	routes := v["routes"].([]any)
	if len(routes) != 15 { // every node but the source
		t.Fatalf("routeall returned %d routes, want 15", len(routes))
	}
	if v["delivered"].(float64) <= 0 {
		t.Fatal("routeall delivered nothing in a connected Q4")
	}
}

// TestRouteAllEndpointLimit checks that /routeall shares the batch
// limit: on a fault-free Q16 a fan-out would answer 65,535 routes (29
// MB of JSON), so it is refused with a short 413 before any routing,
// and the request allocates well under 1 MiB; a Q12 fan-out, 4095
// routes, is served.
func TestRouteAllEndpointLimit(t *testing.T) {
	serveCube := func(n int) (*httptest.Server, *safecube.Registry) {
		c := safecube.MustNew(n)
		reg := safecube.NewRegistry()
		srv, err := c.Serve(safecube.ServeOptions{Registry: reg})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(newHandler(srv, c, reg, handlerOpts{}))
		t.Cleanup(func() { ts.Close(); srv.Close() })
		return ts, reg
	}
	ts, reg := serveCube(16)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	resp, err := http.Get(ts.URL + "/routeall?src=" + strings.Repeat("0", 16))
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Errorf("a refused Q16 fan-out allocated %d bytes, want under 1 MiB", grew)
	}
	if resp.StatusCode != http.StatusRequestEntityTooLarge || len(body) > 200 ||
		!strings.Contains(string(body), "fan-out of 65535 routes exceeds limit 4096") {
		t.Fatalf("Q16 /routeall: status %d, %d bytes: %s", resp.StatusCode, len(body), body)
	}
	if got := reg.Counter(safecube.MetricUnicastsTotal).Value(); got != 0 {
		t.Fatalf("a refused fan-out routed %d unicasts", got)
	}

	ts, _ = serveCube(12)
	v := getJSON(t, ts.URL+"/routeall?src="+strings.Repeat("1", 12), http.StatusOK)
	if got := len(v["routes"].([]any)); got != 4095 {
		t.Fatalf("Q12 /routeall returned %d routes, want 4095", got)
	}
}

func TestFaultAndHealthz(t *testing.T) {
	ts, _ := testServer(t)
	before := getJSON(t, ts.URL+"/healthz", http.StatusOK)
	gen := before["generation"].(float64)
	if before["queue_cap"].(float64) != 8 {
		t.Fatalf("queue_cap %v, want 8", before["queue_cap"])
	}

	v := getJSON(t, ts.URL+"/fault?op=recover-node&a=0011", http.StatusAccepted)
	if v["queued"] != true {
		t.Fatalf("fault not queued: %v", v)
	}
	// Churn is async: poll /healthz until the generation advances.
	deadline := time.Now().Add(5 * time.Second)
	for {
		h := getJSON(t, ts.URL+"/healthz", http.StatusOK)
		if h["generation"].(float64) > gen {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("generation never advanced after fault post")
		}
		time.Sleep(5 * time.Millisecond)
	}
	// The recovered node routes again.
	r := getJSON(t, ts.URL+"/route?src=0011&dst=0000", http.StatusOK)
	if r["route"].(map[string]any)["outcome"] == "failure" {
		t.Fatal("recovered node still fails to route")
	}

	getJSON(t, ts.URL+"/fault?op=explode&a=0000", http.StatusBadRequest)
	getJSON(t, ts.URL+"/fault?op=fail-link&a=0000", http.StatusBadRequest)
	// Semantic validation failure: 0000 and 0011 are not neighbors.
	getJSON(t, ts.URL+"/fault?op=fail-link&a=0000&b=0011", http.StatusUnprocessableEntity)
}

func TestMetricsExposition(t *testing.T) {
	ts, _ := testServer(t)
	getJSON(t, ts.URL+"/route?src=0000&dst=0111", http.StatusOK)

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	body := string(raw)
	if !strings.Contains(body, "serve_routes_total") {
		t.Fatalf("/metrics missing serve_routes_total:\n%s", body)
	}
	vars := getJSON(t, ts.URL+"/vars", http.StatusOK)
	if len(vars) == 0 {
		t.Fatal("/vars returned an empty object")
	}
}

// TestDeadlineExceeded: a request whose deadline has no chance of
// being met returns 504 promptly with a distinct error, and a bad
// deadline parameter is a 400.
func TestDeadlineExceeded(t *testing.T) {
	ts, _ := testServer(t)
	start := time.Now()
	v := getJSON(t, ts.URL+"/route?src=0000&dst=1111&deadline=1ns", http.StatusGatewayTimeout)
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("deadline-exceeded request took %v, want prompt return", elapsed)
	}
	if msg, _ := v["error"].(string); !strings.Contains(msg, "deadline") {
		t.Fatalf("504 error %q does not mention the deadline", msg)
	}
	getJSON(t, ts.URL+"/batch?pairs=0000-1111&deadline=1ns", http.StatusGatewayTimeout)
	getJSON(t, ts.URL+"/routeall?src=0000&deadline=1ns", http.StatusGatewayTimeout)
	getJSON(t, ts.URL+"/route?src=0000&dst=1111&deadline=banana", http.StatusBadRequest)
	getJSON(t, ts.URL+"/route?src=0000&dst=1111&deadline=-1s", http.StatusBadRequest)
}

// TestOverloadShedding: with a tiny admission bucket the query
// endpoints shed with 429 while /healthz and the metrics exposition
// stay reachable.
func TestOverloadShedding(t *testing.T) {
	ts, _ := testServerOpts(t,
		safecube.ServeOptions{QueueDepth: 8, Rate: 1, Burst: 2},
		handlerOpts{queueCap: 8})
	shed := false
	for i := 0; i < 50 && !shed; i++ {
		resp, err := http.Get(ts.URL + "/route?src=0000&dst=1111")
		if err != nil {
			t.Fatal(err)
		}
		switch resp.StatusCode {
		case http.StatusOK:
		case http.StatusTooManyRequests:
			shed = true
		default:
			t.Fatalf("unexpected status %d under overload", resp.StatusCode)
		}
		resp.Body.Close()
	}
	if !shed {
		t.Fatal("burst of 2 admitted 50 requests; no shedding observed")
	}
	getJSON(t, ts.URL+"/healthz", http.StatusOK) // health is never shed
}

// TestLatencyExposition: every query endpoint records into its
// latency histogram, visible in both expositions.
func TestLatencyExposition(t *testing.T) {
	ts, _ := testServer(t)
	getJSON(t, ts.URL+"/route?src=0000&dst=0111", http.StatusOK)
	getJSON(t, ts.URL+"/healthz", http.StatusOK)

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	body := string(raw)
	for _, series := range []string{"latency_http_route_us_bucket", "latency_http_healthz_us_count", "latency_route_us_bucket"} {
		if !strings.Contains(body, "safecube_"+series) {
			t.Fatalf("/metrics missing %s:\n%s", series, body[:min(len(body), 2000)])
		}
	}
	vars := getJSON(t, ts.URL+"/vars", http.StatusOK)
	hists, _ := vars["histograms"].(map[string]any)
	h, ok := hists["latency_http_route_us"].(map[string]any)
	if !ok {
		t.Fatal("/vars missing latency_http_route_us histogram")
	}
	if _, ok := h["quantiles"].(map[string]any); !ok {
		t.Fatal("latency histogram snapshot has no quantiles digest")
	}
}

// TestPprofGating: /debug/pprof is a 404 by default and serves with
// the pprof option on.
func TestPprofGating(t *testing.T) {
	ts, _ := testServer(t)
	resp, err := http.Get(ts.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("/debug/pprof without -pprof: status %d, want 404", resp.StatusCode)
	}

	ts2, _ := testServerOpts(t, safecube.ServeOptions{QueueDepth: 8}, handlerOpts{queueCap: 8, pprof: true})
	resp2, err := http.Get(ts2.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("/debug/pprof with -pprof: status %d, want 200", resp2.StatusCode)
	}
	resp3, err := http.Get(ts2.URL + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	resp3.Body.Close()
	if resp3.StatusCode != http.StatusOK {
		t.Fatalf("/debug/vars with -pprof: status %d, want 200", resp3.StatusCode)
	}
}

// TestProbeAndMonitorEndpoints: /probe reflects the served snapshot's
// per-node fault status with prober-friendly status codes, and /monitor
// is a 404 until the self-healing monitor is enabled.
func TestProbeAndMonitorEndpoints(t *testing.T) {
	ts, _ := testServer(t)
	v := getJSON(t, ts.URL+"/probe?node=0000", http.StatusOK)
	if v["faulty"] != false {
		t.Fatalf("healthy probe: %v", v)
	}
	if v["level"].(float64) < 1 {
		t.Fatalf("healthy node reports level %v", v["level"])
	}
	v = getJSON(t, ts.URL+"/probe?node=0011", http.StatusServiceUnavailable)
	if v["faulty"] != true {
		t.Fatalf("faulty probe: %v", v)
	}
	getJSON(t, ts.URL+"/probe", http.StatusBadRequest)
	getJSON(t, ts.URL+"/probe?node=banana", http.StatusBadRequest)
	getJSON(t, ts.URL+"/monitor", http.StatusNotFound)
}

// TestMonitorAgainstUpstream closes the two-server healing loop over
// real HTTP on a fake clock: an upstream slserve reports node 0011 down
// through /probe, a downstream server's monitor declares it into its
// own fault set after FailK sweeps, /monitor exposes the declaration,
// and an upstream recovery un-declares it.
func TestMonitorAgainstUpstream(t *testing.T) {
	up := safecube.MustNew(4)
	if err := up.FailNamed("0011"); err != nil {
		t.Fatal(err)
	}
	upReg := safecube.NewRegistry()
	upSrv, err := up.Serve(safecube.ServeOptions{QueueDepth: 8, Registry: upReg})
	if err != nil {
		t.Fatal(err)
	}
	upTS := httptest.NewServer(newHandler(upSrv, up, upReg, handlerOpts{queueCap: 8}))
	t.Cleanup(func() { upTS.Close(); upSrv.Close() })

	down := safecube.MustNew(4)
	reg := safecube.NewRegistry()
	srv, err := down.Serve(safecube.ServeOptions{QueueDepth: 8, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	now := time.Unix(0, 0)
	mon, err := monitor.New(
		monitor.HTTPProber{URL: func(node int) string {
			return upTS.URL + "/probe?node=" + down.Format(safecube.NodeID(node))
		}},
		monitor.ApplyFunc(func(_ context.Context, node int, dn bool) error {
			if dn {
				return srv.FailNode(safecube.NodeID(node))
			}
			return srv.RecoverNode(safecube.NodeID(node))
		}),
		monitor.Options{
			Nodes: down.Nodes(), FailK: 2, RecoverK: 1,
			Now: func() time.Time { return now }, Registry: reg,
		})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(newHandler(srv, down, reg, handlerOpts{queueCap: 8, mon: mon}))
	t.Cleanup(func() { ts.Close(); srv.Close() })
	tick := func() monitor.TickResult {
		now = now.Add(time.Second)
		res := mon.Tick(context.Background())
		srv.Flush()
		return res
	}

	victim := down.MustParse("0011")
	tick()
	if res := tick(); res.Declared != 1 {
		t.Fatalf("second sweep declared %d nodes, want 1", res.Declared)
	}
	if !srv.NodeFaulty(victim) {
		t.Fatal("declaration did not land in the downstream fault set")
	}
	v := getJSON(t, ts.URL+"/monitor", http.StatusOK)
	declared, _ := v["declared"].([]any)
	if len(declared) != 1 || int(declared[0].(float64)) != int(victim) {
		t.Fatalf("/monitor declared %v, want [%d]", declared, int(victim))
	}
	if v["declarations"].(float64) != 1 {
		t.Fatalf("/monitor declarations %v, want 1", v["declarations"])
	}

	if err := upSrv.RecoverNode(up.MustParse("0011")); err != nil {
		t.Fatal(err)
	}
	upSrv.Flush()
	if res := tick(); res.Undeclared != 1 {
		t.Fatalf("upstream recovery not mirrored: %+v", res)
	}
	if srv.NodeFaulty(victim) {
		t.Fatal("downstream still marks the recovered node faulty")
	}
}

func TestSplitList(t *testing.T) {
	got := splitList(" a, b ,,c ")
	if len(got) != 3 || got[0] != "a" || got[1] != "b" || got[2] != "c" {
		t.Fatalf("splitList = %q", got)
	}
	if splitList("") != nil {
		t.Fatal("splitList(\"\") != nil")
	}
}

// TestRunRejectsWireWorkers pins that the removed -wire-workers flag is
// refused like any unknown flag, with exit code 2.
func TestRunRejectsWireWorkers(t *testing.T) {
	if code, err := run([]string{"-wire-workers", "4"}, io.Discard); code != 2 || err == nil {
		t.Fatalf("run -wire-workers 4: exit %d, err %v; want 2 and an error", code, err)
	}
}

// TestRunRejectsWorkers pins that the removed -workers flag, which
// sized the batch worker pool, is refused like any unknown flag, with
// exit code 2: a batch runs on the goroutine serving its request.
func TestRunRejectsWorkers(t *testing.T) {
	code, err := run([]string{"-n", "6", "-workers", "4"}, io.Discard)
	if code != 2 || err == nil || !strings.Contains(err.Error(), "-workers") {
		t.Fatalf("run -n 6 -workers 4: exit %d, err %v; want 2 and an error naming -workers", code, err)
	}
}
