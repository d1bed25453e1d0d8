package obs

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

func TestNilRegistryIsNoOp(t *testing.T) {
	var r *Registry
	c := r.Counter("x")
	g := r.Gauge("y")
	h := r.Histogram("z")
	if c != nil || g != nil || h != nil {
		t.Fatal("nil registry must hand out nil handles")
	}
	// None of these may panic, and all reads stay zero.
	c.Inc()
	c.Add(5)
	g.Set(3)
	g.Add(-1)
	h.Observe(7)
	if c.Value() != 0 || g.Value() != 0 || h.Snapshot().Count != 0 {
		t.Error("nil handles must read as zero")
	}
	r.KeepTraces(4)
	r.RecordGS(&GSTrace{})
	if r.LastGS() != nil {
		t.Error("nil registry retained a GS trace")
	}
	var o *RouteObserver = r.RouteObserver()
	if o != nil {
		t.Fatal("nil registry must yield a nil observer")
	}
	var tally RouteTally
	tally.Count(CondCodeC3, OutcomeSuboptimal, 2, 4, 1, false)
	o.Publish(&tally)
	o.Keep(&RouteTrace{})
	snap := r.Snapshot()
	if snap == nil || len(snap.Counters) != 0 {
		t.Error("nil registry snapshot must be empty but marshalable")
	}
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Errorf("nil WriteJSON: %v", err)
	}
	if err := r.WritePrometheus(&buf); err != nil {
		t.Errorf("nil WritePrometheus: %v", err)
	}
}

func TestCounterMonotone(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("hits")
	c.Inc()
	c.Add(4)
	c.Add(-10) // ignored: counters are monotone
	if c.Value() != 5 {
		t.Errorf("value = %d, want 5", c.Value())
	}
	if r.Counter("hits") != c {
		t.Error("same name must return the same counter")
	}
}

func TestGauge(t *testing.T) {
	g := NewRegistry().Gauge("depth")
	g.Set(10)
	g.Add(-3)
	if g.Value() != 7 {
		t.Errorf("value = %d, want 7", g.Value())
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", 1, 4, 16)
	for _, v := range []int64{0, 1, 2, 4, 5, 100} {
		h.Observe(v)
	}
	s := h.Snapshot()
	// le=1: {0,1}; le=4: {2,4}; le=16: {5}; +Inf: {100}.
	want := []int64{2, 2, 1, 1}
	for i, w := range want {
		if s.Counts[i] != w {
			t.Errorf("bucket %d = %d, want %d (snapshot %+v)", i, s.Counts[i], w, s)
		}
	}
	if s.Count != 6 || s.Sum != 112 {
		t.Errorf("count %d sum %d", s.Count, s.Sum)
	}
	// Unspecified bounds fall back to DefaultBuckets, sorted.
	d := r.Histogram("hops")
	if got := d.Snapshot(); len(got.Bounds) != len(DefaultBuckets) {
		t.Errorf("default bounds = %v", got.Bounds)
	}
}

func TestKeepTracesRing(t *testing.T) {
	r := NewRegistry()
	r.KeepTraces(2)
	for i := 0; i < 5; i++ {
		r.keepTrace(&RouteTrace{Source: i})
	}
	snap := r.Snapshot()
	if len(snap.Traces) != 2 || snap.Traces[0].Source != 3 || snap.Traces[1].Source != 4 {
		t.Fatalf("ring kept %+v, want sources 3,4", snap.Traces)
	}
	r.KeepTraces(1) // shrinking trims to the newest
	if tr := r.Snapshot().Traces; len(tr) != 1 || tr[0].Source != 4 {
		t.Errorf("after shrink: %+v", tr)
	}
	r.KeepTraces(0)
	r.keepTrace(&RouteTrace{Source: 9})
	if tr := r.Snapshot().Traces; len(tr) != 0 {
		t.Errorf("retention disabled but kept %+v", tr)
	}
}

func TestPrometheusFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter("route_unicasts_total").Add(3)
	r.Gauge("gs_last_rounds").Set(2)
	h := r.Histogram("route_path_hops", 1, 2)
	h.Observe(1)
	h.Observe(2)
	h.Observe(5)
	r.RecordGS(&GSTrace{Kind: "sequential", Rounds: 2, Deltas: []int{4, 2}})

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE safecube_route_unicasts_total counter\nsafecube_route_unicasts_total 3\n",
		"# TYPE safecube_gs_last_rounds gauge\nsafecube_gs_last_rounds 2\n",
		"# TYPE safecube_route_path_hops histogram\n",
		// Buckets are cumulative and end with +Inf == _count.
		"safecube_route_path_hops_bucket{le=\"1\"} 1\n",
		"safecube_route_path_hops_bucket{le=\"2\"} 2\n",
		"safecube_route_path_hops_bucket{le=\"+Inf\"} 3\n",
		"safecube_route_path_hops_sum 8\n",
		"safecube_route_path_hops_count 3\n",
		"safecube_gs_trace_rounds 2\n",
		"safecube_gs_trace_round_delta{round=\"1\"} 4\n",
		"safecube_gs_trace_round_delta{round=\"2\"} 2\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestPromNameSanitized(t *testing.T) {
	if got := promName("per-link.msgs total"); got != "safecube_per_link_msgs_total" {
		t.Errorf("promName = %q", got)
	}
}

func TestJSONRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("a").Inc()
	r.Gauge("b").Set(-2)
	r.Histogram("c").Observe(3)
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var snap Snapshot
	if err := json.Unmarshal(buf.Bytes(), &snap); err != nil {
		t.Fatalf("dump does not parse: %v", err)
	}
	if snap.Counters["a"] != 1 || snap.Gauges["b"] != -2 || snap.Histograms["c"].Count != 1 {
		t.Errorf("round-trip lost data: %+v", snap)
	}
}

func TestHTTPEndpoints(t *testing.T) {
	r := NewRegistry()
	r.Counter("route_unicasts_total").Add(7)
	mux := r.Mux()

	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("/metrics content type %q", ct)
	}
	if !strings.Contains(rec.Body.String(), "safecube_route_unicasts_total 7") {
		t.Errorf("/metrics body:\n%s", rec.Body.String())
	}

	rec = httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/vars", nil))
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Errorf("/vars content type %q", ct)
	}
	var snap Snapshot
	if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
		t.Fatalf("/vars is not JSON: %v", err)
	}
	if snap.Counters["route_unicasts_total"] != 7 {
		t.Errorf("/vars counters: %+v", snap.Counters)
	}
}

// TestTracedObserverSharesCounters checks that a published tally feeds
// the observer's counters and leaves the trace ring alone, which only
// Keep fills.
func TestTracedObserverSharesCounters(t *testing.T) {
	r := NewRegistry()
	r.KeepTraces(8)
	base := r.RouteObserver()
	// A published tally feeds the counters and enqueues no trace.
	var tally RouteTally
	tally.Count(CondCodeC2, OutcomeOptimal, 1, 1, 0, false)
	base.Publish(&tally)

	s := r.Snapshot()
	if s.Counters[MetricUnicastsTotal] != 1 || s.Counters[MetricHopsTotal] != 1 {
		t.Errorf("shared counters: %+v", s.Counters)
	}
	if len(s.Traces) != 0 {
		t.Errorf("ring holds %d traces, want 0 (a publish must not enqueue)", len(s.Traces))
	}
	// Failure outcomes stay out of the hop/stretch histograms.
	tally.Count(CondCodeNone, OutcomeFailure, 3, 0, 0, false)
	base.Publish(&tally)
	if h := r.Snapshot().Histograms[MetricHopsHist]; h.Count != 1 {
		t.Errorf("failure leaked into path-hops histogram: %+v", h)
	}
	base.Keep(&RouteTrace{Source: 5, Dest: 4})
	if tr := r.Snapshot().Traces; len(tr) != 1 || tr[0].Source != 5 {
		t.Errorf("ring after Keep: %+v", tr)
	}
}

func TestConcurrentMetricUpdates(t *testing.T) {
	r := NewRegistry()
	const workers, iters = 16, 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := r.Counter("shared")
			h := r.Histogram("histo")
			for i := 0; i < iters; i++ {
				c.Inc()
				r.Gauge("g").Set(int64(i))
				h.Observe(int64(i % 10))
				if i%100 == 0 {
					r.Snapshot()
				}
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("shared").Value(); got != workers*iters {
		t.Errorf("lost increments: %d, want %d", got, workers*iters)
	}
	if got := r.Histogram("histo").Snapshot().Count; got != workers*iters {
		t.Errorf("lost observations: %d, want %d", got, workers*iters)
	}
}
