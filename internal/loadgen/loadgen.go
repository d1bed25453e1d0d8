package loadgen

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/stats"
	"repro/internal/wire"
)

// Outcome classes a driven request can land in. OK requests (and only
// those) contribute to the latency histograms; every class is counted.
const (
	ClassOK       = "ok"
	ClassOverload = "overload" // shed by admission control (429 / ErrOverload)
	ClassDeadline = "deadline" // context expired (504)
	ClassDraining = "draining" // server draining (503 / ErrDraining)
	ClassBacklog  = "backlog"  // churn queue full (fault path only)
	ClassError    = "error"    // anything else
)

// Classify maps an error from a Target to its outcome class. The wire
// protocol's typed error frames land in the same classes as their
// in-process and HTTP counterparts, so reports are target-agnostic.
func Classify(err error) string {
	switch {
	case err == nil:
		return ClassOK
	case errors.Is(err, serve.ErrOverload), errors.Is(err, wire.ErrOverload):
		return ClassOverload
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, wire.ErrDeadline):
		return ClassDeadline
	case errors.Is(err, serve.ErrDraining), errors.Is(err, wire.ErrDraining):
		return ClassDraining
	case errors.Is(err, serve.ErrBacklog), errors.Is(err, wire.ErrBacklog):
		return ClassBacklog
	default:
		return ClassError
	}
}

// Target is a system under load: the in-process serving engine
// (LocalTarget) or a remote slserve (HTTPTarget). Implementations
// return nil for a served request and a Classify-able error otherwise.
type Target interface {
	// Nodes returns the topology size, for request synthesis.
	Nodes() int
	// Route drives one unicast query.
	Route(ctx context.Context, src, dst int) error
	// Batch drives one batch query pinned to a single snapshot.
	Batch(ctx context.Context, pairs [][2]int) error
	// RouteAll drives one full fan-out from src.
	RouteAll(ctx context.Context, src int) error
	// Fault reports node a as failed (down) or recovered (!down) —
	// the churn-storm injection path.
	Fault(ctx context.Context, a int, down bool) error
	// ApplyEvent drives one scheduled churn event — node or link, fail
	// or recover — through the same injection path as Fault. This is
	// the scenario-replay surface: a seeded faults.ScenarioSchedule
	// replays identically against both targets.
	ApplyEvent(ctx context.Context, ev faults.ChurnEvent) error
}

// Mix weights the request kinds. Zero weights drop the kind; the zero
// Mix means route-only.
type Mix struct {
	Route    int `json:"route"`
	Batch    int `json:"batch"`
	RouteAll int `json:"routeall"`
}

func (m Mix) total() int { return m.Route + m.Batch + m.RouteAll }

// Config tunes one load-generation run. Zero values: 1 worker, closed
// loop, route-only mix, batch size 16, no warmup, no churn, no
// per-request deadline.
type Config struct {
	// Seed makes the request sequence deterministic: every worker
	// derives its own splitmix64 stream from it, so the same seed
	// offers the same sources, destinations and op kinds in the same
	// per-worker order.
	Seed uint64
	// Workers is the closed-loop concurrency (and the number of pacer
	// goroutines in open-loop mode).
	Workers int
	// Rate switches to open-loop mode: the generator offers this many
	// requests per second in aggregate on a fixed schedule, regardless
	// of how fast the target answers, and measures latency from each
	// request's *scheduled* start — the HDR-style correction for
	// coordinated omission. 0 means closed loop.
	Rate float64
	// Duration is the measured window; Warmup runs first and is
	// recorded separately (reported but excluded from the headline
	// numbers).
	Duration time.Duration
	Warmup   time.Duration
	// Deadline is the per-request context deadline (0 = none).
	Deadline time.Duration
	// Mix weights the request kinds; BatchSize sizes OpBatch requests.
	Mix       Mix
	BatchSize int
	// ChurnEvery enables the churn storm: every interval, one victim
	// node is toggled between failed and recovered through
	// Target.Fault. 0 disables (unless Schedule is set). ChurnVictims
	// bounds the rotating victim set (default 8).
	ChurnEvery   time.Duration
	ChurnVictims int
	// Schedule, when non-empty, replaces the rotating-victim storm with
	// an externally supplied event sequence (e.g. a seeded
	// faults.ScenarioSchedule): one event replays through
	// Target.ApplyEvent per ChurnEvery tick, in order, stopping when
	// the schedule is exhausted; events still pending when the run
	// window closes apply unpaced so the target always reaches the
	// schedule's final state. With ChurnEvery 0 the schedule is
	// spread evenly across warmup+duration so the last event lands
	// before the window closes. Scenario labels the schedule in the
	// report; the events themselves stay out of the JSON.
	Schedule []faults.ChurnEvent `json:"-"`
	Scenario string              `json:",omitempty"`
}

// LatencyReport is the HDR-style digest of one latency population:
// quantiles estimated from the log-spaced histogram plus the full
// bucket counts for offline analysis.
type LatencyReport struct {
	Count  int64   `json:"count"`
	MeanUs float64 `json:"mean_us"`
	P50Us  float64 `json:"p50_us"`
	P90Us  float64 `json:"p90_us"`
	P99Us  float64 `json:"p99_us"`
	P999Us float64 `json:"p999_us"`
	MaxUs  int64   `json:"max_us"`
	// Hist is the raw log-spaced histogram the quantiles were
	// estimated from (bounds in microseconds, one extra +Inf count).
	Hist obs.HistSnapshot `json:"hist"`
}

func latencyReport(h *obs.Histogram, maxUs *atomic.Int64) LatencyReport {
	s := h.Snapshot()
	r := LatencyReport{Count: s.Count, MaxUs: maxUs.Load(), Hist: s}
	if s.Count > 0 {
		r.MeanUs = float64(s.Sum) / float64(s.Count)
		r.P50Us = s.Quantile(0.50)
		r.P90Us = s.Quantile(0.90)
		r.P99Us = s.Quantile(0.99)
		r.P999Us = s.Quantile(0.999)
	}
	return r
}

// Report is the JSON result of one run.
type Report struct {
	Config      Config                   `json:"config"`
	Mode        string                   `json:"mode"` // "closed" or "open"
	Elapsed     time.Duration            `json:"elapsed_ns"`
	Ops         int64                    `json:"ops"`
	OKPerSec    float64                  `json:"ok_per_sec"`
	Classes     map[string]int64         `json:"classes"`
	ChurnEvents int64                    `json:"churn_events"`
	ChurnErrors int64                    `json:"churn_errors"`
	Latency     LatencyReport            `json:"latency"`
	PerKind     map[string]LatencyReport `json:"per_kind"`
	WarmupOps   int64                    `json:"warmup_ops"`
	// Lag is the open-loop generator's own delay, absent in closed
	// loop.
	Lag *LagReport `json:"lag,omitempty"`
}

// LagReport is how far an open-loop generator fell behind its own
// schedule over the measured window: a request's lag is the time from
// its scheduled start to its issue. Latency is measured from the
// scheduled start, so a generator that cannot offer the rate charges
// its own lag to the target; a run whose Behind is more than a small
// share of Ops did not offer the rate it was asked to.
type LagReport struct {
	// Behind counts the requests issued more than one interval (a
	// worker's period, Workers/Rate) after their scheduled start.
	Behind int64 `json:"behind"`
	// P99Us is the 99th percentile of every request's lag.
	P99Us float64 `json:"p99_us"`
}

// recorder aggregates measurements wait-free across workers.
type recorder struct {
	all     *obs.Histogram
	perKind map[string]*obs.Histogram
	maxUs   atomic.Int64
	ops     atomic.Int64
	classes [6]atomic.Int64
	warmOps atomic.Int64
	// lag holds the open-loop requests' lag in microseconds, and
	// behind counts those issued more than one interval late.
	lag    *obs.Histogram
	behind atomic.Int64
}

var classIndex = map[string]int{
	ClassOK: 0, ClassOverload: 1, ClassDeadline: 2,
	ClassDraining: 3, ClassBacklog: 4, ClassError: 5,
}

var classNames = []string{ClassOK, ClassOverload, ClassDeadline, ClassDraining, ClassBacklog, ClassError}

func newRecorder() *recorder {
	return &recorder{
		all: obs.NewLatencyHistogram(),
		lag: obs.NewLatencyHistogram(),
		perKind: map[string]*obs.Histogram{
			"route":    obs.NewLatencyHistogram(),
			"batch":    obs.NewLatencyHistogram(),
			"routeall": obs.NewLatencyHistogram(),
		},
	}
}

func (rec *recorder) record(kind string, class string, us int64, warm bool) {
	if warm {
		rec.warmOps.Add(1)
		return
	}
	rec.ops.Add(1)
	rec.classes[classIndex[class]].Add(1)
	if class != ClassOK {
		return
	}
	rec.all.Observe(us)
	rec.perKind[kind].Observe(us)
	for {
		cur := rec.maxUs.Load()
		if us <= cur || rec.maxUs.CompareAndSwap(cur, us) {
			return
		}
	}
}

// LateGrace is how long Run waits past the end of the measured window
// for the requests and churn events still in flight. Then it cuts them
// off: a request cut off is counted in ClassDeadline, an event as a
// churn error. Without it a server that accepts a request and never
// answers would hold Run for ever when Config.Deadline is 0.
const LateGrace = 2 * time.Second

// recordLag adds one open-loop request's lag, issued late by lag on a
// schedule of one request per interval.
func (rec *recorder) recordLag(lag, interval time.Duration) {
	rec.lag.Observe(lag.Microseconds())
	if lag > interval {
		rec.behind.Add(1)
	}
}

// Run drives the target with cfg and returns the measured report. It
// returns within LateGrace of the window's end however the target
// behaves.
func Run(t Target, cfg Config) *Report {
	workers := cfg.Workers
	if workers < 1 {
		workers = 1
	}
	batch := cfg.BatchSize
	if batch < 1 {
		batch = 16
	}
	mix := cfg.Mix
	if mix.total() == 0 {
		mix = Mix{Route: 1}
	}
	if cfg.Duration <= 0 {
		cfg.Duration = time.Second
	}

	rec := newRecorder()
	nodes := t.Nodes()
	begin := time.Now()
	warmUntil := begin.Add(cfg.Warmup)
	end := warmUntil.Add(cfg.Duration)
	// cutoff is done LateGrace after the window closes. Every request
	// and churn event runs under it, each worker under a child of its
	// own, so the engine's checks of a request's context never contend
	// on one lock across workers.
	cutoff, cut := context.WithCancel(context.Background())
	defer cut()
	defer time.AfterFunc(time.Until(end.Add(LateGrace)), cut).Stop()

	stopChurn := make(chan struct{})
	var churnWg sync.WaitGroup
	var churnEvents, churnErrors atomic.Int64
	if len(cfg.Schedule) > 0 {
		// Scenario replay: the schedule is the storm. Pacing defaults
		// to an even spread over the whole run so the final recovery
		// wave lands inside the measured window.
		every := cfg.ChurnEvery
		if every <= 0 {
			every = (cfg.Warmup + cfg.Duration) / time.Duration(len(cfg.Schedule)+1)
			if every <= 0 {
				every = time.Millisecond
			}
		}
		churnWg.Add(1)
		go func() {
			defer churnWg.Done()
			tick := time.NewTicker(every)
			defer tick.Stop()
			for _, ev := range cfg.Schedule {
				select {
				case <-stopChurn:
					// The window closed first: drain the rest unpaced so
					// the target still ends in the schedule's final
					// (ends-clean) state instead of keeping residual
					// faults a later run would inherit.
				case <-tick.C:
				}
				// A failed apply (backlog, transport) is counted and the
				// event dropped; later events may then be no-ops against
				// the target's set, which the apply path tolerates.
				if err := t.ApplyEvent(cutoff, ev); err != nil {
					churnErrors.Add(1)
					continue
				}
				churnEvents.Add(1)
			}
		}()
	} else if cfg.ChurnEvery > 0 {
		victims := cfg.ChurnVictims
		if victims <= 0 {
			victims = 8
		}
		if victims > nodes/2 {
			victims = nodes / 2
		}
		churnWg.Add(1)
		go func() {
			defer churnWg.Done()
			rng := stats.NewRNG(cfg.Seed).Split(0xC0FFEE)
			// A rotating victim set with per-victim down/up state, so
			// the storm never wedges the topology: at most `victims`
			// nodes are down at once and every fail is eventually
			// undone by the same goroutine.
			set := rng.Sample(nodes, victims)
			down := make([]bool, len(set))
			tick := time.NewTicker(cfg.ChurnEvery)
			defer tick.Stop()
			for i := 0; ; i++ {
				select {
				case <-stopChurn:
					return
				case <-tick.C:
				}
				v := i % len(set)
				if err := t.Fault(cutoff, set[v], !down[v]); err != nil {
					churnErrors.Add(1)
					continue
				}
				down[v] = !down[v]
				churnEvents.Add(1)
			}
		}()
	}

	mode := "closed"
	if cfg.Rate > 0 {
		mode = "open"
	}
	var interval time.Duration
	if cfg.Rate > 0 {
		interval = time.Duration(float64(workers) * float64(time.Second) / cfg.Rate)
		if interval <= 0 {
			interval = time.Nanosecond
		}
	}

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			wctx, wcancel := context.WithCancel(cutoff)
			defer wcancel()
			rng := newWorkerRNG(cfg.Seed, id)
			// Open-loop schedule: worker id fires at begin + offset +
			// k*interval; the offset staggers workers uniformly.
			next := begin
			if interval > 0 {
				next = begin.Add(time.Duration(id) * interval / time.Duration(workers))
			}
			for k := 0; ; k++ {
				now := time.Now()
				if !now.Before(end) {
					return
				}
				start := now
				if interval > 0 {
					if sleep := time.Until(next); sleep > 0 {
						time.Sleep(sleep)
						if !time.Now().Before(end) {
							return
						}
					}
					// Latency is measured from the *scheduled* start:
					// a stalled target inflates the latency of every
					// queued request, not just the one in flight.
					start = next
					next = next.Add(interval)
					if now := time.Now(); !now.Before(warmUntil) {
						rec.recordLag(now.Sub(start), interval)
					}
				}
				kind := pickKind(rng, mix)
				ctx := wctx
				cancel := func() {}
				if cfg.Deadline > 0 {
					ctx, cancel = context.WithDeadline(ctx, time.Now().Add(cfg.Deadline))
				}
				var err error
				switch kind {
				case "route":
					err = t.Route(ctx, rng.Intn(nodes), rng.Intn(nodes))
				case "batch":
					pairs := make([][2]int, batch)
					for i := range pairs {
						pairs[i] = [2]int{rng.Intn(nodes), rng.Intn(nodes)}
					}
					err = t.Batch(ctx, pairs)
				case "routeall":
					err = t.RouteAll(ctx, rng.Intn(nodes))
				}
				cancel()
				us := time.Since(start).Microseconds()
				class := Classify(err)
				if err != nil && wctx.Err() != nil {
					class = ClassDeadline // cut off LateGrace past the window
				}
				rec.record(kind, class, us, time.Now().Before(warmUntil))
			}
		}(w)
	}
	wg.Wait()
	close(stopChurn)
	churnWg.Wait()
	elapsed := time.Since(warmUntil)
	if elapsed <= 0 {
		elapsed = time.Nanosecond
	}

	rep := &Report{
		Config:      cfg,
		Mode:        mode,
		Elapsed:     elapsed,
		Ops:         rec.ops.Load(),
		Classes:     map[string]int64{},
		ChurnEvents: churnEvents.Load(),
		ChurnErrors: churnErrors.Load(),
		Latency:     latencyReport(rec.all, &rec.maxUs),
		PerKind:     map[string]LatencyReport{},
		WarmupOps:   rec.warmOps.Load(),
	}
	for i, name := range classNames {
		if v := rec.classes[i].Load(); v > 0 {
			rep.Classes[name] = v
		}
	}
	rep.OKPerSec = float64(rep.Classes[ClassOK]) / elapsed.Seconds()
	if interval > 0 {
		rep.Lag = &LagReport{Behind: rec.behind.Load(), P99Us: rec.lag.Snapshot().Quantile(0.99)}
	}
	var zero atomic.Int64
	for kind, h := range rec.perKind {
		if s := h.Snapshot(); s.Count > 0 {
			lr := latencyReport(h, &zero)
			lr.MaxUs = 0 // tracked only for the aggregate population
			rep.PerKind[kind] = lr
		}
	}
	return rep
}

// newWorkerRNG derives worker id's private stream from the run seed.
func newWorkerRNG(seed uint64, id int) *stats.RNG {
	return stats.NewRNG(seed).Split(uint64(id) + 1)
}

// pickKind draws an op kind with the mix's weights.
func pickKind(rng *stats.RNG, m Mix) string {
	n := rng.Intn(m.total())
	if n < m.Route {
		return "route"
	}
	if n < m.Route+m.Batch {
		return "batch"
	}
	return "routeall"
}
