package obs

import (
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric. The zero value is ready
// to use; a nil Counter ignores updates.
type Counter struct {
	v atomic.Int64
}

// Inc adds 1.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n in one atomic update, so a caller that counts a run of
// events itself pays one per run. A zero delta costs nothing, and
// negative ones are ignored to keep the counter monotone.
func (c *Counter) Add(n int64) {
	if c == nil || n <= 0 {
		return
	}
	c.v.Add(n)
}

// Value returns the current count (0 for a nil Counter).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a metric that can move both ways. A nil Gauge ignores
// updates.
type Gauge struct {
	v atomic.Int64
}

// Set stores v.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Add adjusts the gauge by n.
func (g *Gauge) Add(n int64) {
	if g == nil {
		return
	}
	g.v.Add(n)
}

// Max raises the gauge to v if v is larger — a lock-free high-water
// mark, safe under concurrent Max callers.
func (g *Gauge) Max(v int64) {
	if g == nil {
		return
	}
	for {
		cur := g.v.Load()
		if v <= cur || g.v.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Value returns the current value (0 for a nil Gauge).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram counts integer observations into cumulative buckets with
// fixed upper bounds (Prometheus "le" semantics: an observation lands in
// the first bucket whose bound is >= the value, and in every later
// bucket at exposition time). A nil Histogram ignores observations.
type Histogram struct {
	bounds []int64        // ascending upper bounds; implicit +Inf last
	counts []atomic.Int64 // len(bounds)+1
	sum    atomic.Int64
	count  atomic.Int64
	// exemplars holds the most recent request ID observed per bucket
	// (0 when the bucket has never seen an attributed observation), so
	// a hot tail bucket links straight to a flight-recorder trace.
	exemplars []atomic.Uint64
}

// DefaultBuckets suit the small integer measurements of this system
// (hops, rounds, levels, message counts per node).
var DefaultBuckets = []int64{0, 1, 2, 4, 8, 16, 32, 64}

func newHistogram(bounds []int64) *Histogram {
	if len(bounds) == 0 {
		bounds = DefaultBuckets
	}
	b := append([]int64(nil), bounds...)
	sort.Slice(b, func(i, j int) bool { return b[i] < b[j] })
	return &Histogram{
		bounds:    b,
		counts:    make([]atomic.Int64, len(b)+1),
		exemplars: make([]atomic.Uint64, len(b)+1),
	}
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	i := sort.Search(len(h.bounds), func(i int) bool { return h.bounds[i] >= v })
	h.counts[i].Add(1)
	h.sum.Add(v)
	h.count.Add(1)
}

// ObserveEx is Observe plus an exemplar: id (a flight-recorder request
// ID) becomes the bucket's exemplar, replacing the previous one. id 0
// leaves the exemplar untouched.
func (h *Histogram) ObserveEx(v int64, id uint64) {
	if h == nil {
		return
	}
	i := sort.Search(len(h.bounds), func(i int) bool { return h.bounds[i] >= v })
	h.counts[i].Add(1)
	h.sum.Add(v)
	h.count.Add(1)
	if id != 0 {
		h.exemplars[i].Store(id)
	}
}

// HistSnapshot is a consistent-enough copy of a histogram for export.
type HistSnapshot struct {
	// Bounds are the bucket upper bounds; Counts[i] is the number of
	// observations <= Bounds[i] (non-cumulative per bucket here;
	// exporters cumulate). Counts has one extra entry for +Inf.
	Bounds []int64 `json:"bounds"`
	Counts []int64 `json:"counts"`
	Sum    int64   `json:"sum"`
	Count  int64   `json:"count"`
	// Quantiles holds the p50/p90/p99/p999 estimates (see Quantile),
	// computed at snapshot time; nil while the histogram is empty.
	Quantiles map[string]float64 `json:"quantiles,omitempty"`
	// Exemplars is the last request ID observed per bucket, aligned
	// with Counts; nil while no bucket has an exemplar.
	Exemplars []uint64 `json:"exemplars,omitempty"`
}

// Snapshot copies the histogram state (zero value for nil).
func (h *Histogram) Snapshot() HistSnapshot {
	if h == nil {
		return HistSnapshot{}
	}
	s := HistSnapshot{
		Bounds: append([]int64(nil), h.bounds...),
		Counts: make([]int64, len(h.counts)),
		Sum:    h.sum.Load(),
		Count:  h.count.Load(),
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	any := false
	ex := make([]uint64, len(h.exemplars))
	for i := range h.exemplars {
		if ex[i] = h.exemplars[i].Load(); ex[i] != 0 {
			any = true
		}
	}
	if any {
		s.Exemplars = ex
	}
	s.Quantiles = s.quantiles()
	return s
}

// Registry holds named metrics and the most recent protocol traces. All
// methods are safe for concurrent use, and all of them accept a nil
// receiver as "instrumentation disabled".
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	gaugeFns map[string]func() int64
	hists    map[string]*Histogram

	lastGS *GSTrace

	traceCap int
	traces   []*RouteTrace
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		gaugeFns: make(map[string]func() int64),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use. A nil
// registry returns a nil (no-op) counter. Hot paths should resolve the
// handle once and reuse it rather than paying the map lookup per event.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// GaugeFunc registers a callback gauge: fn is evaluated at Snapshot
// time and its result appears under name alongside the plain gauges
// (shadowing a plain gauge of the same name). fn runs with the
// registry lock held, so it must be fast and must not touch the
// registry. fn == nil unregisters. Useful for derived values that are
// cheap to read but awkward to push, like snapshot age.
func (r *Registry) GaugeFunc(name string, fn func() int64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if fn == nil {
		delete(r.gaugeFns, name)
		return
	}
	r.gaugeFns[name] = fn
}

// Histogram returns the named histogram, creating it with the given
// bucket bounds on first use (DefaultBuckets when none are given).
// Later calls reuse the existing histogram regardless of bounds.
func (r *Registry) Histogram(name string, bounds ...int64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = newHistogram(bounds)
		r.hists[name] = h
	}
	return h
}

// KeepTraces enables the route-trace ring buffer: the registry retains
// the most recent k traced unicasts for export. k <= 0 disables
// retention (per-call traces still work).
func (r *Registry) KeepTraces(k int) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.traceCap = k
	if k <= 0 {
		r.traces = nil
	} else if len(r.traces) > k {
		r.traces = append([]*RouteTrace(nil), r.traces[len(r.traces)-k:]...)
	}
}

// keepTrace appends a finished trace to the ring buffer, if enabled.
func (r *Registry) keepTrace(t *RouteTrace) {
	if r == nil || t == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.traceCap <= 0 {
		return
	}
	r.traces = append(r.traces, t)
	if len(r.traces) > r.traceCap {
		r.traces = r.traces[len(r.traces)-r.traceCap:]
	}
}

// RecordGS stores t as the most recent GS trace.
func (r *Registry) RecordGS(t *GSTrace) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.lastGS = t
}

// LastGS returns the most recent GS trace (nil if none recorded).
func (r *Registry) LastGS() *GSTrace {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.lastGS
}

// Snapshot is a point-in-time copy of every metric plus the retained
// traces, ready for JSON marshaling.
type Snapshot struct {
	Counters   map[string]int64        `json:"counters"`
	Gauges     map[string]int64        `json:"gauges"`
	Histograms map[string]HistSnapshot `json:"histograms"`
	GS         *GSTrace                `json:"gs,omitempty"`
	Traces     []*RouteTrace           `json:"traces,omitempty"`
}

// Snapshot captures the registry. A nil registry yields an empty (but
// marshalable) snapshot.
func (r *Registry) Snapshot() *Snapshot {
	s := &Snapshot{
		Counters:   map[string]int64{},
		Gauges:     map[string]int64{},
		Histograms: map[string]HistSnapshot{},
	}
	if r == nil {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Value()
	}
	for name, fn := range r.gaugeFns {
		s.Gauges[name] = fn()
	}
	for name, h := range r.hists {
		s.Histograms[name] = h.Snapshot()
	}
	s.GS = r.lastGS
	s.Traces = append([]*RouteTrace(nil), r.traces...)
	return s
}
