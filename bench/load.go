package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/loadgen"
	"repro/internal/topo"
	"repro/internal/wire"
)

// Phases of one drive. Requests are measured only in the window; in a
// traced run the window's second half is the traced window.
const (
	phaseWarmup int32 = iota
	phaseWindow
	phaseTraced
	phaseStop
)

// A static workload's fault events go out eventsPerPause at a time,
// probeInterval apart, in each pause between slices (see drive).
const (
	eventsPerPause = 40
	probeInterval  = 2 * time.Millisecond
)

// requester sends request i (the index into the client's pair ring) and
// returns how many routes it asked for, when it started, its latency,
// and the transport or refusal error, if any.
type requester func(i int, inWindow bool) (routes int, start time.Time, lat time.Duration, err error)

// reqSpan is one request of the traced window, in ns since epoch. It
// holds no pointers, so a long traced window does not add to the
// garbage collector's scan work.
type reqSpan struct {
	index      int64
	start, end int64
}

// recorder is one client goroutine's tally. That goroutine writes it
// while holding the drive's gate for reading; the coordinator reads it
// while holding the gate for writing, or after the goroutine exited.
type recorder struct {
	cube *topo.Cube

	lat   []float64 // ns per OK request in the window, in order
	spans []reqSpan

	attempted, ok, failed int64            // routes in the window
	classes               map[string]int64 // refused routes by class, warmup included

	answers, suboptimal, failures int64 // window answers by outcome
	samples                       []sample
	bad                           int64 // answers failing the shape or path check
	firstBad                      string
}

func newRecorder(cube *topo.Cube) *recorder {
	return &recorder{cube: cube, classes: map[string]int64{}}
}

// answer checks one routed answer against Theorem 2's shape and, in the
// window, keeps every sampleEvery-th one for the reference check.
func (r *recorder) answer(q wire.Pair, got wire.RouteInfo, gen uint64, inWindow bool) {
	if err := shapeErr(r.cube, q, got); err != nil {
		r.fail(err)
	}
	if !inWindow {
		return
	}
	if r.answers%sampleEvery == 0 {
		r.samples = append(r.samples, sample{pair: q, gen: gen, got: got})
	}
	r.answers++
	switch core.Outcome(got.Outcome) {
	case core.Suboptimal:
		r.suboptimal++
	case core.Failure:
		r.failures++
	}
}

func (r *recorder) fail(err error) {
	if r.bad == 0 {
		r.firstBad = err.Error()
	}
	r.bad++
}

// loop drives requests closed loop until the phase reaches phaseStop.
// Each request runs under the gate's read lock, so the coordinator
// pauses the clients, with none in flight, by taking the write lock.
func (r *recorder) loop(ph *atomic.Int32, gate *sync.RWMutex, do requester) {
	for i := 0; ; i++ {
		gate.RLock()
		p := ph.Load()
		if p == phaseStop {
			gate.RUnlock()
			return
		}
		r.request(i, p, do)
		gate.RUnlock()
	}
}

func (r *recorder) request(i int, p int32, do requester) {
	inWindow := p == phaseWindow || p == phaseTraced
	n, start, lat, err := do(i, inWindow)
	if err != nil {
		r.classes[loadgen.Classify(err)] += int64(n)
	}
	if !inWindow {
		return
	}
	r.attempted += int64(n)
	if err != nil {
		r.failed += int64(n)
		return
	}
	r.ok += int64(n)
	r.lat = append(r.lat, float64(lat.Nanoseconds()))
	if p == phaseTraced {
		s := start.Sub(epoch).Nanoseconds()
		r.spans = append(r.spans, reqSpan{index: int64(i % pairRing), start: s, end: s + lat.Nanoseconds()})
	}
}

// visibility tracks the newest snapshot generation any answer has
// reported, and hands the time of the first answer past an awaited
// generation to the fault pacer.
type visibility struct {
	seen atomic.Uint64
	mu   sync.Mutex
	want uint64
	ch   chan time.Time
}

func newVisibility(g0 uint64) *visibility {
	v := &visibility{ch: make(chan time.Time, 1)}
	v.seen.Store(g0)
	return v
}

func (v *visibility) observe(gen uint64) {
	for {
		old := v.seen.Load()
		if gen <= old {
			return
		}
		if v.seen.CompareAndSwap(old, gen) {
			break
		}
	}
	now := time.Now()
	v.mu.Lock()
	if v.want != 0 && gen >= v.want {
		v.want = 0
		v.ch <- now
	}
	v.mu.Unlock()
}

// expect arms the tracker for the first generation past the newest one
// seen, and returns the channel the arrival time of its first answer is
// delivered on.
func (v *visibility) expect() <-chan time.Time {
	v.mu.Lock()
	v.want = v.seen.Load() + 1
	v.mu.Unlock()
	return v.ch
}

// observer sends one fault event through send and returns the time from
// the send to the first route answer past the generation seen before it.
type observer func(send func() error) (time.Duration, error)

// readersSee observes through the running clients' answers.
func (v *visibility) readersSee(send func() error) (time.Duration, error) {
	ch := v.expect()
	sent := time.Now()
	if err := send(); err != nil {
		return 0, err
	}
	select {
	case at := <-ch:
		return at.Sub(sent), nil
	case <-time.After(10 * time.Second):
		return 0, errors.New("not visible after 10s")
	}
}

// pollerSees observes by routing through poll, back to back, until an
// answer carries a newer generation; the clients are paused meanwhile.
func pollerSees(poll func() (uint64, error)) (observer, error) {
	gen, err := poll()
	if err != nil {
		return nil, err
	}
	return func(send func() error) (time.Duration, error) {
		sent := time.Now()
		if err := send(); err != nil {
			return 0, err
		}
		for {
			g, err := poll()
			if err != nil {
				return 0, err
			}
			if g > gen {
				gen = g
				return time.Since(sent), nil
			}
			if time.Since(sent) > 10*time.Second {
				return 0, errors.New("not visible after 10s")
			}
		}
	}, nil
}

// paceResult is the timing of one fault-event stream.
type paceResult struct {
	visible []float64 // ms from send to the first answer past the prior generation
	late    []float64 // ms each send trailed its schedule
}

// pace sends events open loop, event k due at start + k*interval, and
// times each with observe. Before each send it waits for the previous
// event to become visible, so one slow publish makes later sends late
// (reported) rather than queued.
func pace(events []faults.ChurnEvent, start time.Time, interval time.Duration, send func(faults.ChurnEvent) error, observe observer) (paceResult, error) {
	var res paceResult
	for k, ev := range events {
		due := start.Add(time.Duration(k) * interval)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		res.late = append(res.late, ms(time.Since(due)))
		d, err := observe(func() error { return send(ev) })
		if err != nil {
			return res, fmt.Errorf("fault event %d (%v): %w", k, ev, err)
		}
		res.visible = append(res.visible, ms(d))
	}
	return res, nil
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// slices is how many parts the window is cut into. The clients pause
// between slices while the machine-speed probe runs (and, on a static
// workload, a group of fault events), and each slice is scaled by the
// mean of the probes on either side of it.
const slices = 10

// slice is one measured part of the window.
type slice struct {
	dur    time.Duration
	speed  float64 // machine speed relative to the reference (1 in traced runs, which do not probe)
	cpuSec float64 // server CPU time
	ok     int64   // routes answered
	// latStart and latEnd delimit, per client, the slice's latencies in
	// the recorder's lat.
	latStart, latEnd []int
	traced           bool
}

// loadResult is what one drive measured.
type loadResult struct {
	g0       uint64 // snapshot generation before any event
	recs     []*recorder
	slices   []slice
	visible  []float64 // ms per fault event, as measured
	eventSpd []float64 // machine speed while each event was timed
	late     []float64 // ms each fault event trailed its schedule
	rssMB    float64
	scrape   [2]map[string]float64 // /metrics before and after the window (traced runs)
	mallocs  float64               // server allocations over the window (traced runs)
	gcCycles float64               // server GC cycles over the window (traced runs)
}

// clientSet is the client side of one drive: one requester per client
// goroutine, the control-plane sender for fault events, and a poll that
// routes one fixed pair on the first client's connection (used while
// the clients are paused) and returns the answer's generation.
type clientSet struct {
	dos   []requester
	send  func(faults.ChurnEvent) error
	poll  func() (uint64, error)
	close func()
}

// drive runs warmup and window against a started server: closed-loop
// clients throughout, paused between the window's slices, with the
// churn schedule paced through the slices (q20-churn) or the fault
// events sent in the pauses (static workloads). An untraced drive
// probes the machine's speed in every pause; a traced one makes the
// window's second half the traced window and reads the server's
// allocator and /metrics counters.
func drive(in *inputs, s *server, seconds float64, traced bool) (res *loadResult, err error) {
	window := time.Duration(seconds * float64(time.Second))
	sliceDur := window / slices
	warmup := min(window/5, 2*time.Second)
	hc := &http.Client{Timeout: 10 * time.Second, Transport: &http.Transport{}}
	defer hc.CloseIdleConnections()
	g0, err := healthGeneration(hc, s.httpBase)
	if err != nil {
		return nil, err
	}
	vis := newVisibility(g0)
	res = &loadResult{g0: g0}
	for range in.pairs {
		res.recs = append(res.recs, newRecorder(in.cube))
	}
	cs, err := newClients(in, s, vis, res.recs)
	if err != nil {
		return nil, err
	}
	defer cs.close()

	var ph atomic.Int32
	var gate sync.RWMutex
	var wg sync.WaitGroup
	for c, rec := range res.recs {
		wg.Add(1)
		go func(rec *recorder, do requester) {
			defer wg.Done()
			rec.loop(&ph, &gate, do)
		}(rec, cs.dos[c])
	}
	paused := false
	pause := func() { gate.Lock(); paused = true }
	resume := func() { paused = false; gate.Unlock() }
	defer func() {
		if !paused {
			pause()
		}
		ph.Store(phaseStop)
		resume()
		wg.Wait()
	}()
	speed := func() (float64, error) {
		if traced {
			return 1, nil
		}
		r, err := probeRate(probeTime)
		return r / refProbeRate, err
	}

	// between runs while the clients are paused after the warmup (k = 0)
	// and after each slice: the speed probe, then on a static workload
	// its k-th group of fault events, answered one route at a time on
	// the first client's connection. Spreading the events over the run
	// samples visibility across the machine's drift, as the window does.
	between := func(k int) (float64, error) {
		sp, err := speed()
		if err != nil || in.w.churn {
			return sp, err
		}
		see, err := pollerSees(cs.poll)
		if err != nil {
			return 0, err
		}
		pr, err := pace(in.events[k*eventsPerPause:(k+1)*eventsPerPause], time.Now(), probeInterval, cs.send, see)
		if err != nil {
			return 0, err
		}
		res.addEvents(pr, sp)
		return sp, nil
	}

	time.Sleep(warmup)
	pause()
	var m0, gc0 float64
	if traced {
		if m0, gc0, err = memStats(hc, s.httpBase); err != nil {
			return nil, err
		}
		if res.scrape[0], err = scrapeMetrics(hc, s.httpBase); err != nil {
			return nil, err
		}
	}
	before, err := between(0)
	if err != nil {
		return nil, err
	}
	perSlice := len(in.events) / slices
	var ok0 int64
	for i := 0; i < slices; i++ {
		sl := slice{traced: traced && i >= slices/2}
		if sl.traced {
			ph.Store(phaseTraced)
		} else {
			ph.Store(phaseWindow)
		}
		cpu0, err := cpuTicks(s.pid())
		if err != nil {
			return nil, err
		}
		var pr paceResult
		var paceErr error
		done := make(chan struct{})
		start := time.Now()
		resume()
		if in.w.churn {
			evs := in.events[i*perSlice : (i+1)*perSlice]
			go func() {
				defer close(done)
				pr, paceErr = pace(evs, start, sliceDur/time.Duration(len(evs)), cs.send, vis.readersSee)
			}()
		} else {
			close(done)
		}
		time.Sleep(sliceDur)
		<-done
		pause()
		sl.dur = time.Since(start)
		if paceErr != nil {
			return nil, paceErr
		}
		cpu1, err := cpuTicks(s.pid())
		if err != nil {
			return nil, err
		}
		sl.cpuSec = float64(cpu1-cpu0) / ticksPerSecond
		var ok int64
		for c, r := range res.recs {
			ok += r.ok
			sl.latEnd = append(sl.latEnd, len(r.lat))
			if i == 0 {
				sl.latStart = append(sl.latStart, 0)
			} else {
				sl.latStart = append(sl.latStart, res.slices[i-1].latEnd[c])
			}
		}
		sl.ok = ok - ok0
		after, err := between(i + 1)
		if err != nil {
			return nil, err
		}
		sl.speed = (before + after) / 2
		res.slices = append(res.slices, sl)
		res.addEvents(pr, sl.speed)
		before, ok0 = after, ok
	}
	if traced {
		m1, gc1, err := memStats(hc, s.httpBase)
		if err != nil {
			return nil, err
		}
		res.mallocs, res.gcCycles = m1-m0, gc1-gc0
		if res.scrape[1], err = scrapeMetrics(hc, s.httpBase); err != nil {
			return nil, err
		}
	}
	if res.rssMB, err = peakRSSMB(s.pid()); err != nil {
		return nil, err
	}
	return res, nil
}

func (res *loadResult) addEvents(pr paceResult, speed float64) {
	res.visible = append(res.visible, pr.visible...)
	res.late = append(res.late, pr.late...)
	for range pr.visible {
		res.eventSpd = append(res.eventSpd, speed)
	}
}

func healthGeneration(hc *http.Client, base string) (uint64, error) {
	resp, err := hc.Get(base + "/healthz")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	var h struct {
		Generation uint64 `json:"generation"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		return 0, fmt.Errorf("decode /healthz: %w", err)
	}
	return h.Generation, nil
}

// newClients opens one connection per client goroutine on the
// workload's surface. Fault events travel the same surface, on the
// first client's connection.
func newClients(in *inputs, s *server, vis *visibility, recs []*recorder) (*clientSet, error) {
	if in.w.op == opHTTP {
		return newHTTPClients(in, s, vis, recs), nil
	}
	ctx := context.Background()
	var conns []*wire.Client
	cs := &clientSet{close: func() {
		for _, c := range conns {
			c.Close()
		}
	}}
	for c, rec := range recs {
		cl, err := wire.Dial(s.wireAddr, wire.ClientOptions{})
		if err != nil {
			cs.close()
			return nil, err
		}
		conns = append(conns, cl)
		pairs := in.pairs[c]
		if in.w.op == opUnicast {
			cs.dos = append(cs.dos, func(i int, inWindow bool) (int, time.Time, time.Duration, error) {
				q := pairs[i%pairRing]
				t0 := time.Now()
				resp, err := cl.Unicast(ctx, q.Src, q.Dst)
				lat := time.Since(t0)
				if err != nil {
					return 1, t0, lat, err
				}
				vis.observe(resp.Gen)
				rec.answer(q, resp.Route, resp.Gen, inWindow)
				return 1, t0, lat, nil
			})
			continue
		}
		routes := make([]wire.RouteInfo, 0, batchSize)
		cs.dos = append(cs.dos, func(i int, inWindow bool) (int, time.Time, time.Duration, error) {
			off := (i * batchSize) % pairRing
			ps := pairs[off : off+batchSize]
			t0 := time.Now()
			gen, out, err := cl.Batch(ctx, ps, routes)
			lat := time.Since(t0)
			if err != nil {
				return batchSize, t0, lat, err
			}
			routes = out
			if len(out) != len(ps) {
				return batchSize, t0, lat, fmt.Errorf("batch answered %d of %d pairs", len(out), len(ps))
			}
			vis.observe(gen)
			for j := range out {
				rec.answer(ps[j], out[j], gen, inWindow)
			}
			return batchSize, t0, lat, nil
		})
	}
	first, q := conns[0], in.pairs[0][0]
	cs.poll = func() (uint64, error) {
		resp, err := first.Unicast(ctx, q.Src, q.Dst)
		if err != nil {
			return 0, err
		}
		recs[0].answer(q, resp.Route, resp.Gen, false)
		return resp.Gen, nil
	}
	cs.send = func(ev faults.ChurnEvent) error {
		_, err := first.Fault(ctx, wire.FaultReq{Kind: uint8(ev.Kind), A: uint32(ev.A), B: uint32(ev.B)})
		return err
	}
	return cs, nil
}

// httpAnswer is the part of slserve's /route response the check reads.
type httpAnswer struct {
	Generation uint64 `json:"generation"`
	Route      struct {
		Outcome   string   `json:"outcome"`
		Condition string   `json:"condition"`
		Distance  int      `json:"distance"`
		Hops      int      `json:"hops"`
		Path      []string `json:"path"`
	} `json:"route"`
}

func newHTTPClients(in *inputs, s *server, vis *visibility, recs []*recorder) *clientSet {
	var hcs []*http.Client
	cs := &clientSet{close: func() {
		for _, hc := range hcs {
			hc.CloseIdleConnections()
		}
	}}
	for c, rec := range recs {
		hc := &http.Client{Timeout: 10 * time.Second, Transport: &http.Transport{
			MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true,
		}}
		hcs = append(hcs, hc)
		pairs := in.pairs[c]
		urls := make([]string, len(pairs))
		for i, q := range pairs {
			urls[i] = s.routeURL(in.cube, q)
		}
		var buf bytes.Buffer
		cs.dos = append(cs.dos, func(i int, inWindow bool) (int, time.Time, time.Duration, error) {
			k := i % pairRing
			t0 := time.Now()
			body, err := fetch(hc, urls[k], http.StatusOK, &buf)
			lat := time.Since(t0)
			if err != nil {
				return 1, t0, lat, err
			}
			var a httpAnswer
			if err := json.Unmarshal(body, &a); err != nil {
				return 1, t0, lat, fmt.Errorf("decode /route: %w", err)
			}
			vis.observe(a.Generation)
			got, err := routeInfoOf(a)
			if err != nil {
				rec.fail(err)
				return 1, t0, lat, nil
			}
			rec.answer(pairs[k], got, a.Generation, inWindow)
			// Between its pauses a static workload's fault set is the
			// starting one: every group of events is undone.
			if inWindow {
				if err := pathErr(in.set, pairs[k], got, a.Route.Path); err != nil {
					rec.fail(err)
				}
			}
			return 1, t0, lat, nil
		})
	}
	first, q := hcs[0], in.pairs[0][0]
	pollURL := s.routeURL(in.cube, q)
	var buf bytes.Buffer
	cs.poll = func() (uint64, error) {
		body, err := fetch(first, pollURL, http.StatusOK, &buf)
		if err != nil {
			return 0, err
		}
		var a httpAnswer
		if err := json.Unmarshal(body, &a); err != nil {
			return 0, fmt.Errorf("decode /route: %w", err)
		}
		got, err := routeInfoOf(a)
		if err != nil {
			return 0, err
		}
		recs[0].answer(q, got, a.Generation, false)
		return a.Generation, nil
	}
	cs.send = func(ev faults.ChurnEvent) error {
		var op string
		switch ev.Kind {
		case faults.DeltaFailNode:
			op = "fail-node"
		case faults.DeltaRecoverNode:
			op = "recover-node"
		default:
			return fmt.Errorf("no HTTP fault op for %v", ev)
		}
		_, err := fetch(first, s.httpBase+"/fault?op="+op+"&a="+url.QueryEscape(in.cube.Format(ev.A)), http.StatusAccepted, &buf)
		return err
	}
	return cs
}

// fetch GETs url and returns the body read into buf; a status other
// than want is an error.
func fetch(hc *http.Client, url string, want int, buf *bytes.Buffer) ([]byte, error) {
	resp, err := hc.Get(url)
	if err != nil {
		return nil, err
	}
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if err == nil && resp.StatusCode != want {
		err = statusErr(resp.StatusCode, buf.Bytes())
	}
	return buf.Bytes(), err
}

// statusErr maps an HTTP refusal onto the wire protocol's typed errors,
// so loadgen.Classify files it in the same class on either surface.
func statusErr(code int, body []byte) error {
	var base error
	switch code {
	case http.StatusTooManyRequests:
		base = wire.ErrOverload
	case http.StatusServiceUnavailable:
		base = wire.ErrDraining
	case http.StatusGatewayTimeout:
		base = wire.ErrDeadline
	default:
		return fmt.Errorf("HTTP %d: %s", code, bytes.TrimSpace(body))
	}
	return fmt.Errorf("%w (HTTP %d)", base, code)
}

// routeInfoOf converts an HTTP answer into the wire protocol's compact
// encoding, so both surfaces share one checker.
func routeInfoOf(a httpAnswer) (wire.RouteInfo, error) {
	info := wire.RouteInfo{Hamming: uint16(a.Route.Distance), Hops: uint16(a.Route.Hops)}
	outcome, cond := false, false
	for o := core.Optimal; o <= core.Failure; o++ {
		if o.String() == a.Route.Outcome {
			info.Outcome, outcome = uint8(o), true
		}
	}
	for c := core.CondNone; c <= core.CondC3; c++ {
		if c.String() == a.Route.Condition {
			info.Cond, cond = uint8(c), true
		}
	}
	if !outcome || !cond {
		return info, errors.New("unknown outcome " + a.Route.Outcome + " or condition " + a.Route.Condition)
	}
	return info, nil
}
