package main

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"time"
)

// metricDef names a reported metric and its unit. The two catalogues
// are the ones BENCHMARK.json lists; bench_test.go keeps them in step.
type metricDef struct{ name, unit string }

// e2eMetrics are what a user of the router sees; an untraced run
// reports all of them on every workload.
var e2eMetrics = []metricDef{
	{"setup_s", "s"},
	{"throughput_rps", "1/s"},
	{"latency_p50_us", "us"},
	{"latency_p99_us", "us"},
	{"server_cpu_us_per_route", "us"},
	{"server_rss_mb", "MB"},
	{"fault_visible_p95_ms", "ms"},
}

// layerMetrics are the per-layer rows; a traced run reports all of them
// on every workload. bench/README.md maps each to the end-to-end metric
// and workload it should move.
var layerMetrics = []metricDef{
	{"topo.distance_ns", "ns"},
	{"core.feasibility_ns", "ns"},
	{"core.unicast_ns", "ns"},
	{"core.unicast_allocs", "count"},
	{"core.unicast_bytes", "B"},
	{"serve.snapshot_route_ns", "ns"},
	{"serve.routectx_ns", "ns"},
	{"serve.routectx_allocs", "count"},
	{"serve.routectx_self_ns", "ns"},
	{"obs.flight_overhead_pct", "%"},
	{"serve.batch64_ns_per_route", "ns"},
	{"serve.wire_batch64_ns_per_route", "ns"},
	{"wire.encode_ns", "ns"},
	{"wire.decode_ns", "ns"},
	{"serve.wire_unicast_rtt_us", "us"},
	{"serve.wire_self_us", "us"},
	{"serve.wire_coalesced_ns_per_route", "ns"},
	{"slserve.http_route_us", "us"},
	{"slserve.http_self_us", "us"},
	{"ratio.http_over_wire", "ratio"},
	{"server.allocs_per_route", "count"},
	{"server.gc_per_kroute", "count"},
	{"core.compute_ms", "ms"},
	{"faults.apply_ns", "ns"},
	{"core.repair_us", "us"},
	{"core.repair_evals_per_event", "count"},
	{"core.detach_us", "us"},
	{"serve.apply_visible_us", "us"},
	{"serve.apply_self_us", "us"},
	{"serve.events_per_swap", "count"},
	{"serve.swap_us", "us"},
	{"client.fault_send_late_p95_ms", "ms"},
	{"trace.overhead_us", "us"},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one run's report; its JSON form is the line the command
// prints last.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
	notes     []string
}

func (r *result) set(name string, v float64) {
	for _, cat := range [][]metricDef{e2eMetrics, layerMetrics} {
		for _, d := range cat {
			if d.name == name {
				r.Metrics[name] = metricValue{Value: v, Unit: d.unit}
				return
			}
		}
	}
	panic("bench: metric " + name + " is not in the catalogue")
}

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

type config struct {
	slserve string
	seed    uint64
	seconds float64
	trace   bool
}

// rowBudget is each ladder row's share of a traced run.
func rowBudget(seconds float64) time.Duration {
	d := time.Duration(seconds * float64(time.Second) / 40)
	return min(max(d, 25*time.Millisecond), 250*time.Millisecond)
}

// runWorkload runs one workload once: fresh servers, the drive, the
// correctness gate, and either the end-to-end metrics or, traced, the
// per-layer ladder.
func runWorkload(w workload, cfg config, tr *tracer) (*result, error) {
	in, err := makeInputs(w, cfg.seed)
	if err != nil {
		return nil, err
	}
	args := []string{"-n", strconv.Itoa(w.dim)}
	if len(in.faultArgs) > 0 {
		args = append(args, "-faults", strings.Join(in.faultArgs, ","))
	}
	starts := setups
	if cfg.trace {
		args = append(args, "-pprof")
		starts = 1
	}
	res := &result{Metrics: map[string]metricValue{}}
	var srv *server
	var setupS []float64
	var rate0 float64
	if !cfg.trace {
		if rate0, err = probeRate(probeTime); err != nil {
			return nil, err
		}
	}
	for k := 0; k < starts; k++ {
		s, d, err := startServer(cfg.slserve, args)
		if err != nil {
			return nil, err
		}
		setupS = append(setupS, d.Seconds())
		if k < starts-1 {
			s.kill()
		} else {
			srv = s
		}
	}
	defer srv.stop()
	setupSpeed := 1.0
	if !cfg.trace {
		rate1, err := probeRate(probeTime)
		if err != nil {
			return nil, err
		}
		setupSpeed = (rate0 + rate1) / 2 / refProbeRate
	}
	lr, err := drive(in, srv, cfg.seconds, cfg.trace)
	if err != nil {
		return nil, err
	}
	var l *ladder
	if cfg.trace {
		tr.workload = w.name
		l = &ladder{tr: tr, root: tr.open(-1, "ladder"), budget: rowBudget(cfg.seconds)}
		if err := serverRows(in, srv, l, res); err != nil {
			return nil, err
		}
	}
	srv.stop()

	var samples []sample
	var bad, ok, answers, suboptimal, failures int64
	firstBad := ""
	classes := map[string]int64{}
	for _, r := range lr.recs {
		samples = append(samples, r.samples...)
		if r.bad > 0 && bad == 0 {
			firstBad = r.firstBad
		}
		bad += r.bad
		ok += r.ok
		answers += r.answers
		suboptimal += r.suboptimal
		failures += r.failures
		res.Attempted += r.attempted
		res.Failed += r.failed
		for c, n := range r.classes {
			classes[c] += n
		}
	}
	if ok == 0 {
		return nil, fmt.Errorf("no route answered in the window (classes %v)", classes)
	}
	gate := checkSamples(in.set, lr.g0, in.events, samples)
	res.Correct = bad == 0 && gate.mismatches == 0
	res.note("gate: %d sampled answers checked against the reference, %d at generation skew, %d mismatches", gate.checked, gate.skew, gate.mismatches)
	if gate.mismatches > 0 {
		res.note("first mismatch: %s", gate.first)
	}
	if bad > 0 {
		res.note("%d answers broke Theorem 2's shape or the path oracle; first: %s", bad, firstBad)
	}
	res.note("refused requests by class: %v; %d fault events sent", classes, len(lr.visible))
	res.note("fail_ratio %.6f, detour_ratio %.6f, unreachable_ratio %.6f (ratio)",
		float64(res.Failed)/float64(res.Attempted),
		float64(suboptimal)/float64(max(answers-failures, 1)),
		float64(failures)/float64(max(answers, 1)))
	if !cfg.trace {
		e2e(res, lr, median(setupS), setupSpeed)
		return res, nil
	}

	addRequestSpans(tr, w, lr)
	var untraced, traced []float64
	for _, sl := range lr.slices {
		for c, r := range lr.recs {
			if sl.traced {
				traced = append(traced, r.lat[sl.latStart[c]:sl.latEnd[c]]...)
			} else {
				untraced = append(untraced, r.lat[sl.latStart[c]:sl.latEnd[c]]...)
			}
		}
	}
	res.set("trace.overhead_us", (median(traced)-median(untraced))/1e3)
	res.set("server.allocs_per_route", lr.mallocs/float64(ok))
	res.set("server.gc_per_kroute", lr.gcCycles*1e3/float64(ok))
	delta := func(name string) float64 {
		return lr.scrape[1]["safecube_"+name] - lr.scrape[0]["safecube_"+name]
	}
	res.set("serve.events_per_swap", delta("serve_apply_events_total")/delta("serve_swaps_total"))
	res.set("serve.swap_us", delta("serve_swap_micros_sum")/delta("serve_swap_micros_count"))
	res.set("client.fault_send_late_p95_ms", quantile(sortedCopy(lr.late), 0.95))
	if err := runLadder(in, l, res); err != nil {
		return nil, err
	}
	res.set("slserve.http_self_us", res.Metrics["slserve.http_route_us"].Value-res.Metrics["serve.routectx_ns"].Value/1e3)
	tr.close(l.root)
	tr.metrics[w.name] = res.Metrics
	return res, nil
}

// e2e sets the end-to-end metrics, each scaled to the reference
// machine's speed (see calib.go). A quantity measured with the clients
// running is scaled by the probed speed of its slice to the power
// loadExp: times are multiplied by it and rates divided by it. Fault
// visibility and set-up time are scaled by the first power of the speed
// probed next to them. The values as measured go into the notes.
func e2e(res *result, lr *loadResult, setup, setupSpeed float64) {
	var ok int64
	var dur, durSpeed, durScaled, cpu, cpuScaled float64
	var lat, latScaled []float64
	for _, sl := range lr.slices {
		k := math.Pow(sl.speed, loadExp)
		ok += sl.ok
		dur += sl.dur.Seconds()
		durSpeed += sl.dur.Seconds() * sl.speed
		durScaled += sl.dur.Seconds() * k
		cpu += sl.cpuSec
		cpuScaled += sl.cpuSec * k
		for c, r := range lr.recs {
			for _, v := range r.lat[sl.latStart[c]:sl.latEnd[c]] {
				lat = append(lat, v)
				latScaled = append(latScaled, v*k)
			}
		}
	}
	visScaled := make([]float64, len(lr.visible))
	for i, v := range lr.visible {
		visScaled[i] = v * lr.eventSpd[i]
	}
	vis := sortedCopy(lr.visible)
	lat, latScaled, visScaled = sortedCopy(lat), sortedCopy(latScaled), sortedCopy(visScaled)
	res.note("latency from %d requests, %d beyond p99; %d fault events timed, %d beyond p95",
		len(lat), beyond(len(lat), 0.99), len(vis), beyond(len(vis), 0.95))
	res.note("machine speed %.4f of the reference over the window (time-weighted), %.4f around set-up", durSpeed/dur, setupSpeed)
	res.note("as measured, before scaling: setup_s=%.6g throughput_rps=%.6g latency_p50_us=%.6g latency_p99_us=%.6g server_cpu_us_per_route=%.6g fault_visible_p95_ms=%.6g",
		setup, float64(ok)/dur, quantile(lat, 0.5)/1e3, quantile(lat, 0.99)/1e3, cpu*1e6/float64(ok), quantile(vis, 0.95))
	// The median is printed, not reported: over ten runs of q20-batch its
	// interquartile range reached 25% of its median, against 12% for p95.
	res.note("fault_visible_p50_ms %.6g scaled, %.6g as measured", quantile(visScaled, 0.5), quantile(vis, 0.5))
	res.set("setup_s", setup*setupSpeed)
	res.set("throughput_rps", float64(ok)/durScaled)
	res.set("latency_p50_us", quantile(latScaled, 0.5)/1e3)
	res.set("latency_p99_us", quantile(latScaled, 0.99)/1e3)
	res.set("server_cpu_us_per_route", cpuScaled*1e6/float64(ok))
	res.set("server_rss_mb", lr.rssMB)
	res.set("fault_visible_p95_ms", quantile(visScaled, 0.95))
}

// addRequestSpans records the traced window's client requests under one
// root span, keeping at most a quarter of the span budget per client.
func addRequestSpans(tr *tracer, w workload, lr *loadResult) {
	name := map[op]string{opUnicast: "e2e.unicast", opBatch: "e2e.batch64", opHTTP: "e2e.http_route"}[w.op]
	var all []reqSpan
	for _, r := range lr.recs {
		n := min(len(r.spans), maxSpans/4)
		all = append(all, r.spans[:n]...)
		tr.dropped += len(r.spans) - n
	}
	if len(all) == 0 {
		return
	}
	sort.Slice(all, func(i, j int) bool { return all[i].start < all[j].start })
	root := tr.add(-1, "e2e", -1, all[0].start, all[len(all)-1].end)
	for _, s := range all {
		tr.add(root, name, s.index, s.start, s.end)
	}
}
