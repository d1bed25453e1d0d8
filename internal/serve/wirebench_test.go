package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
	"time"

	"repro/internal/topo"
	"repro/internal/wire"
)

// The wire-vs-HTTP serving benchmarks. Both sides drive the SAME Q10
// engine over real sockets from parallel clients, one route per op, so
// ns/op is directly an inverse req/s-per-core, and bench-gate watches
// these for regressions. The comparison against the shipped slserve is
// the traced ladder row ratio.http_over_wire (bash bench/run.sh
// -trace 1); slserve's own /route handler is benchmarked in process by
// cmd/slserve's BenchmarkServeSlserveRoute.

// benchWireServer binds a wire server to the bench service.
func benchWireServer(b *testing.B, opts WireOptions) *WireServer {
	b.Helper()
	svc := benchService(b, Options{})
	ws, err := ListenWire(svc, "127.0.0.1:0", opts)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { ws.Close() })
	return ws
}

// benchHTTPServer exposes the bench service through a stand-in for
// cmd/slserve's JSON /route surface: query params in, and a
// map[string]any encoded by encoding/json out on every response, where
// slserve appends its answer by hand. Address parsing here is plain
// integers — cheaper than slserve's bit-string parse.
func benchHTTPServer(b *testing.B) *httptest.Server {
	b.Helper()
	svc := benchService(b, Options{})
	mux := http.NewServeMux()
	mux.HandleFunc("/route", func(w http.ResponseWriter, r *http.Request) {
		q := r.URL.Query()
		src, err1 := strconv.Atoi(q.Get("src"))
		dst, err2 := strconv.Atoi(q.Get("dst"))
		if err1 != nil || err2 != nil {
			http.Error(w, "bad node", http.StatusBadRequest)
			return
		}
		rt, err := svc.RouteCtx(r.Context(), topo.NodeID(src), topo.NodeID(dst))
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(map[string]any{
			"generation": svc.Generation(),
			"outcome":    rt.Outcome.String(),
			"condition":  rt.Condition.String(),
			"distance":   rt.Hamming,
			"hops":       rt.Len(),
		})
	})
	hs := httptest.NewServer(mux)
	b.Cleanup(hs.Close)
	return hs
}

// BenchmarkServeWire is the headline data-plane number: parallel
// callers issuing single unicasts through the coalescing client, which
// merges them into pipelined OpBatch frames on pooled connections —
// the deployment shape cmd/slload -wire -coalesce drives.
func BenchmarkServeWire(b *testing.B) {
	ws := benchWireServer(b, WireOptions{})
	c, err := wire.Dial(ws.Addr(), wire.ClientOptions{Conns: 2})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	// MaxBatch matches the caller count below: batches flush the moment
	// a full wave of callers has enqueued instead of waiting out the
	// linger timer (32 parallel callers per GOMAXPROCS, batch of 32, so
	// this holds at any core count).
	co := wire.NewCoalescer(c, wire.CoalescerOptions{MaxBatch: 32, MaxDelay: 100 * time.Microsecond})
	defer co.Close()

	ctx := context.Background()
	b.SetParallelism(32) // coalescing needs concurrent callers to merge
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := uint32(0)
		for pb.Next() {
			i++
			if _, _, err := co.Unicast(ctx, i%1024, (i*7)%1024); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkServeWireUnpipelined is the same workload without the
// coalescer: one request frame per op, still multiplexed on pooled
// connections. The gap to BenchmarkServeWire is what client-side
// batching buys.
func BenchmarkServeWireUnpipelined(b *testing.B) {
	ws := benchWireServer(b, WireOptions{})
	c, err := wire.Dial(ws.Addr(), wire.ClientOptions{Conns: 2})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()

	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := uint32(0)
		for pb.Next() {
			i++
			if _, err := c.Unicast(ctx, i%1024, (i*7)%1024); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkServeWireBatch measures explicit 64-pair batch frames —
// the per-route floor of the wire path.
func BenchmarkServeWireBatch(b *testing.B) {
	ws := benchWireServer(b, WireOptions{})
	c, err := wire.Dial(ws.Addr(), wire.ClientOptions{})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()

	const batch = 64
	pairs := make([]wire.Pair, batch)
	for i := range pairs {
		pairs[i] = wire.Pair{Src: uint32(i * 3 % 1024), Dst: uint32(i * 11 % 1024)}
	}
	ctx := context.Background()
	routes := make([]wire.RouteInfo, 0, batch)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, out, err := c.Batch(ctx, pairs, routes)
		if err != nil || len(out) != batch {
			b.Fatal(err)
		}
		routes = out
	}
	b.StopTimer()
	// Report per-route cost so the number is comparable to the
	// single-unicast benchmarks above.
	perRoute := float64(b.Elapsed().Nanoseconds()) / float64(b.N) / batch
	b.ReportMetric(perRoute, "ns/route")
}

// BenchmarkServeHTTPRoute is the HTTP/JSON baseline on the same
// workload: parallel keep-alive clients, one GET /route per op.
func BenchmarkServeHTTPRoute(b *testing.B) {
	hs := benchHTTPServer(b)
	tr := &http.Transport{MaxIdleConns: 64, MaxIdleConnsPerHost: 64}
	defer tr.CloseIdleConnections()
	client := &http.Client{Transport: tr}

	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		buf := make([]byte, 4096)
		i := uint32(0)
		for pb.Next() {
			i++
			url := fmt.Sprintf("%s/route?src=%d&dst=%d", hs.URL, i%1024, (i*7)%1024)
			resp, err := client.Get(url)
			if err != nil {
				b.Fatal(err)
			}
			for {
				if _, rerr := resp.Body.Read(buf); rerr != nil {
					break
				}
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				b.Fatalf("HTTP %d", resp.StatusCode)
			}
		}
	})
}
