// Command slserve exposes the concurrent route-serving engine over
// HTTP: lock-free unicast queries against immutable level snapshots,
// with fault churn applied through the engine's bounded queue and each
// repaired assignment published by a single atomic snapshot swap. The
// serving path is production-hardened: per-request deadlines, token-
// bucket admission control, per-endpoint latency histograms, optional
// pprof/expvar debug endpoints, and a graceful drain on SIGINT/SIGTERM
// (see docs/OPERATIONS.md for the full operator guide).
//
// Usage:
//
//	slserve -n 6 -random 4 -seed 3 -listen :8080
//	slserve -radix 2x3x2 -faults 011,100 -listen :8080
//	slserve -n 10 -rate 50000 -burst 1000 -deadline 2s -pprof
//	slserve -n 8 -listen :8080 -wire-addr :9090
//
// With -wire-addr the server additionally speaks the length-prefixed
// binary wire protocol (internal/wire) on that address — the high-
// throughput data plane that slload -wire drives — while HTTP stays up
// for ops. See docs/OPERATIONS.md ("The binary wire protocol").
//
// Endpoints:
//
//	/route?src=ADDR&dst=ADDR    one unicast against the current snapshot
//	/batch?pairs=A-B,C-D,...    many unicasts pinned to ONE snapshot
//	                            (at most 4096 pairs; 413 above)
//	/routeall?src=ADDR          fan-out from src to every other node
//	/fault?op=OP&a=ADDR[&b=ADDR]  enqueue churn: op is fail-node,
//	                            recover-node, fail-link or recover-link
//	/probe?node=ADDR            per-node health: 200 if the served
//	                            snapshot holds the node healthy, 503 if
//	                            it is marked faulty
//	/monitor                    self-healing monitor status (declared
//	                            nodes, probe counters); 404 unless the
//	                            monitor is enabled
//	/syndrome                   PMC self-test syndrome of the served
//	                            snapshot (?seed=N&adversary=POLICY
//	                            override the -diagnose-* defaults);
//	                            always mounted
//	/diagnosis                  syndrome-decoder status (verdict,
//	                            declared nodes, sweep counters); 404
//	                            unless -diagnose-target is set
//	/healthz                    generation, queue depth, inflight, state
//	/metrics, /vars             Prometheus text / JSON registry dump
//	/debug/flight               flight recorder: recent request records
//	                            (?limit=N, ?format=text)
//	/debug/incidents            promoted anomalies with per-hop traces
//	                            (?format=text)
//	/debug/pprof/*, /debug/vars profiling + expvar (only with -pprof)
//
// The query endpoints accept an optional deadline=DURATION parameter,
// clamped to the -deadline flag. Status codes on the query endpoints:
// 200 served, 400 bad request, 413 batch over the pair limit, 429 shed
// by admission control (-rate), 503 draining after a shutdown signal,
// 504 deadline exceeded. The listener closes a connection whose request
// header is not complete within 10 s, or that sits idle for 2 minutes.
//
// Addresses use the topology's own notation: n-bit binary strings for
// a cube ("0110"), per-dimension digit strings for a generalized
// hypercube ("121"), dotted when a radix exceeds 10 ("9.2"). Fault
// posts return 202: churn is asynchronous and the snapshot generation
// in /healthz advances once it is applied.
//
// Self-healing monitor (-monitor-target URL): probe an upstream
// slserve's /probe endpoint for every node, declare a node into THIS
// server's fault set after -monitor-k consecutive misses, and
// un-declare it after -monitor-recover consecutive healthy probes — so
// this server's routes detour around whatever the upstream reports
// down, with flap hysteresis (see internal/monitor). Do not point a
// server's monitor at itself: its own declarations would read back as
// misses and stick forever.
//
// Syndrome diagnosis (-diagnose-target URL): fetch the upstream
// slserve's /syndrome — the full PMC neighbor-test syndrome of its
// served snapshot — decode it (internal/diagnose), and declare the
// identified faulty set into THIS server's fault set every
// -diagnose-every. Unlike the monitor, which needs -monitor-k
// consecutive sweeps per node, one identified sweep declares the whole
// set; an ambiguous decode (fault count past the diagnosability bound)
// declares nothing and is surfaced on /diagnosis, in
// diagnose_ambiguous_total and as a diagnosis-ambiguous incident.
// Monitor and diagnoser may run together: both feed one shared
// deduplicating applier, so a node both of them declare produces a
// single churn event and a single journal delta. The same self-test
// caveat applies: do not point -diagnose-target at the server itself.
// Exit status: 0 ok (including a clean drain), 1 drain timeout,
// 2 usage error.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"expvar"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"net/url"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	safecube "repro"
	"repro/internal/diagnose"
	"repro/internal/monitor"
	"repro/internal/obs"
)

func main() {
	code, err := run(os.Args[1:], os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "slserve:", err)
		if code == 0 {
			code = 2
		}
	}
	os.Exit(code)
}

// run executes one invocation; split from main so the CLI is testable.
func run(args []string, out io.Writer) (int, error) {
	fs := flag.NewFlagSet("slserve", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	n := fs.Int("n", 6, "cube dimension")
	radix := fs.String("radix", "", "generalized hypercube shape, e.g. 2x3x2; overrides -n")
	faultList := fs.String("faults", "", "comma-separated faulty node addresses")
	random := fs.Int("random", 0, "inject this many uniform random faults")
	seed := fs.Uint64("seed", 1, "seed for -random")
	queue := fs.Int("queue", 0, "churn apply-queue depth (0 means the engine default, 64)")
	rate := fs.Float64("rate", 0, "admission control: max admitted unicasts/sec (0 disables)")
	burst := fs.Int("burst", 0, "admission token-bucket depth in unicasts (0 means 1)")
	deadline := fs.Duration("deadline", 5*time.Second, "per-request deadline ceiling (0 disables)")
	drain := fs.Duration("drain", 10*time.Second, "graceful-shutdown drain timeout on SIGINT/SIGTERM")
	pprofOn := fs.Bool("pprof", false, "mount /debug/pprof and /debug/vars")
	listen := fs.String("listen", ":8080", "HTTP listen address")
	wireAddr := fs.String("wire-addr", "", "binary wire-protocol listen address (empty disables)")
	noFlight := fs.Bool("no-flight", false, "disable the always-on flight recorder")
	monTarget := fs.String("monitor-target", "", "upstream slserve base URL to health-probe; declares its down nodes into this server's fault set")
	monEvery := fs.Duration("monitor-every", time.Second, "monitor probe sweep interval")
	monK := fs.Int("monitor-k", 3, "consecutive missed probes before a node is declared faulty")
	monRecover := fs.Int("monitor-recover", 2, "consecutive healthy probes before a declared node recovers")
	diagTarget := fs.String("diagnose-target", "", "upstream slserve base URL whose /syndrome to decode; declares the diagnosed faulty set into this server's fault set")
	diagEvery := fs.Duration("diagnose-every", 2*time.Second, "diagnosis sweep interval")
	diagBound := fs.Int("diagnose-bound", 0, "diagnosability bound override (0 means the topology's own bound)")
	diagAdversary := fs.String("diagnose-adversary", "", "faulty-tester policy for /syndrome and the upstream fetch: truthful, stealth, slander, invert or random (default invert)")
	diagSeed := fs.Uint64("diagnose-seed", 1, "seed for deterministic faulty-tester reports on /syndrome")
	flightRecords := fs.Int("flight-records", 4096, "flight-recorder ring capacity in request records")
	flightIncidents := fs.Int("flight-incidents", 64, "incident buffer capacity")
	flightSlow := fs.Duration("flight-slow", 50*time.Millisecond, "per-route latency threshold that promotes a request to an incident")
	if err := fs.Parse(args); err != nil {
		return 2, err
	}

	reg := safecube.NewRegistry()
	var flight *safecube.FlightRecorder
	if !*noFlight {
		flight = safecube.NewFlightRecorder(safecube.FlightOptions{
			Records:     *flightRecords,
			Incidents:   *flightIncidents,
			SlowRouteUS: (*flightSlow).Microseconds(),
			Registry:    reg,
		})
	}
	c, err := newCube(*n, *radix)
	if err != nil {
		return 2, err
	}
	if *faultList != "" {
		if err := c.FailNamed(splitList(*faultList)...); err != nil {
			return 2, err
		}
	}
	if *random > 0 {
		if err := c.InjectRandomFaults(*seed, *random); err != nil {
			return 2, err
		}
	}
	srv, err := c.Serve(safecube.ServeOptions{
		QueueDepth: *queue,
		Rate:       *rate,
		Burst:      *burst,
		Registry:   reg,
		Flight:     flight,
		NoFlight:   *noFlight,
	})
	if err != nil {
		return 2, err
	}
	defer srv.Close()

	adv, err := diagnose.ParseAdversary(*diagAdversary)
	if err != nil {
		return 2, err
	}

	// Monitor and diagnoser both declare into this server; route both
	// through ONE deduplicating applier so a node they agree on lands as
	// a single churn event and a single journal delta.
	dedup := diagnose.NewDedup(diagnose.ApplyFunc(func(_ context.Context, node int, down bool) error {
		if down {
			return srv.FailNode(safecube.NodeID(node))
		}
		return srv.RecoverNode(safecube.NodeID(node))
	}))

	// The monitor and the diagnoser run until stopBackground, which
	// cancels both and waits for their Run to return.
	bgCtx, bgCancel := context.WithCancel(context.Background())
	var bg sync.WaitGroup
	stopBackground := func() { bgCancel(); bg.Wait() }
	defer stopBackground()

	var mon *monitor.Monitor
	if *monTarget != "" {
		base := strings.TrimRight(*monTarget, "/")
		mon, err = monitor.New(
			monitor.HTTPProber{URL: func(node int) string {
				return base + "/probe?node=" + url.QueryEscape(c.Format(safecube.NodeID(node)))
			}},
			dedup,
			monitor.Options{
				Nodes:    c.Nodes(),
				FailK:    *monK,
				RecoverK: *monRecover,
				Interval: *monEvery,
				Registry: reg,
			})
		if err != nil {
			return 2, err
		}
		bg.Add(1)
		go func() { defer bg.Done(); mon.Run(bgCtx) }()
	}

	var diag *diagnose.Reconciler
	if *diagTarget != "" {
		base := strings.TrimRight(*diagTarget, "/")
		synURL := fmt.Sprintf("%s/syndrome?seed=%d&adversary=%s",
			base, *diagSeed, url.QueryEscape(string(adv)))
		diag, err = diagnose.NewReconciler(
			diagnose.HTTPSource{URL: synURL, Topology: srv.Topology()},
			dedup,
			diagnose.ReconcilerOptions{
				Topology: srv.Topology(),
				Bound:    *diagBound,
				Interval: *diagEvery,
				Registry: reg,
				Flight:   flight,
			})
		if err != nil {
			return 2, err
		}
		bg.Add(1)
		go func() { defer bg.Done(); diag.Run(bgCtx) }()
	}

	var wireSrv *safecube.WireServer
	if *wireAddr != "" {
		wireSrv, err = srv.ServeWire(*wireAddr, safecube.WireOptions{Registry: reg})
		if err != nil {
			return 2, err
		}
		defer wireSrv.Close()
	}

	queueCap := *queue
	if queueCap <= 0 {
		queueCap = 64
	}
	mux := newHandler(srv, c, reg, handlerOpts{
		queueCap: queueCap,
		deadline: *deadline,
		pprof:    *pprofOn,
		mon:      mon,
		diag:     diag,
		diagSeed: *diagSeed,
		diagAdv:  adv,
	})
	httpSrv := newHTTPServer(*listen, mux)
	if wireSrv != nil {
		fmt.Fprintf(out, "# %s; serving routes on %s, wire on %s\n", c, *listen, wireSrv.Addr())
	} else {
		fmt.Fprintf(out, "# %s; serving routes on %s\n", c, *listen)
	}

	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()
	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigCh)

	select {
	case err := <-errCh:
		return 0, err
	case sig := <-sigCh:
		// Graceful drain, strictly ordered: stop accepting connections
		// and wait out the HTTP handlers, then drain the engine (its
		// in-flight requests, then the churn queue, then the final
		// snapshot swap, then the applier).
		fmt.Fprintf(out, "# %v: draining (timeout %s)\n", sig, *drain)
		// Stop the monitor and the diagnoser first, and wait for their
		// sweeps to end, so no declaration races the engine drain.
		stopBackground()
		ctx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		if wireSrv != nil {
			// Close the wire surface before the engine drains: Close
			// waits for every connection's goroutine, so no wire request
			// is in flight when srv.Shutdown starts.
			_ = wireSrv.Close()
		}
		if herr := httpSrv.Shutdown(ctx); herr != nil {
			srv.Close()
			return 1, fmt.Errorf("http drain incomplete: %w", herr)
		}
		if serr := srv.Shutdown(ctx); serr != nil {
			return 1, fmt.Errorf("engine drain incomplete: %w", serr)
		}
		fmt.Fprintln(out, "# drained cleanly")
		return 0, nil
	}
}

// Timeouts of the HTTP listener. A client has httpReadHeaderTimeout to
// send its request header, and a keep-alive connection left idle for
// httpIdleTimeout is closed, so a client that stalls mid-request or
// walks away does not hold a connection goroutine for ever.
const (
	httpReadHeaderTimeout = 10 * time.Second
	httpIdleTimeout       = 2 * time.Minute
)

// newHTTPServer returns the HTTP server for handler h on addr, with the
// listener timeouts above.
func newHTTPServer(addr string, h http.Handler) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: httpReadHeaderTimeout,
		IdleTimeout:       httpIdleTimeout,
	}
}

// handlerOpts configure the HTTP surface.
type handlerOpts struct {
	queueCap int
	// deadline caps (and defaults) the per-request deadline; requests
	// may lower it with ?deadline=DURATION but never raise it past
	// this. 0 disables server-imposed deadlines.
	deadline time.Duration
	// pprof mounts /debug/pprof/* and /debug/vars.
	pprof bool
	// mon, when non-nil, backs the /monitor status endpoint.
	mon *monitor.Monitor
	// diag, when non-nil, backs the /diagnosis status endpoint.
	diag *diagnose.Reconciler
	// diagSeed and diagAdv are the /syndrome defaults when the request
	// carries no seed/adversary parameters.
	diagSeed uint64
	diagAdv  diagnose.Adversary
}

// newHandler builds the serving mux on top of the registry's /metrics
// and /vars exposition.
func newHandler(srv *safecube.Server, cube *safecube.Cube, reg *safecube.Registry, opts handlerOpts) http.Handler {
	mux := reg.Mux()

	// node reads the address parameter key from the request's query q,
	// parsed once per request.
	node := func(w http.ResponseWriter, q url.Values, key string) (safecube.NodeID, bool) {
		v := q.Get(key)
		if v == "" {
			httpErr(w, http.StatusBadRequest, fmt.Errorf("missing %q parameter", key))
			return 0, false
		}
		a, err := cube.Parse(v)
		if err != nil {
			httpErr(w, http.StatusBadRequest, err)
			return 0, false
		}
		return a, true
	}

	// reqCtx derives the request context: the server ceiling from
	// opts.deadline, optionally tightened by a ?deadline= parameter.
	reqCtx := func(w http.ResponseWriter, r *http.Request, q url.Values) (context.Context, context.CancelFunc, bool) {
		limit := opts.deadline
		if raw := q.Get("deadline"); raw != "" {
			d, err := time.ParseDuration(raw)
			if err != nil || d <= 0 {
				httpErr(w, http.StatusBadRequest, fmt.Errorf("bad deadline %q, want a positive duration", raw))
				return nil, nil, false
			}
			if limit == 0 || d < limit {
				limit = d
			}
		}
		if limit == 0 {
			return r.Context(), func() {}, true
		}
		ctx, cancel := context.WithTimeout(r.Context(), limit)
		return ctx, cancel, true
	}

	// instrument wraps a handler with its endpoint latency histogram
	// (wall time including encoding, recorded in microseconds).
	instrument := func(name string, h http.HandlerFunc) http.HandlerFunc {
		hist := reg.LatencyHistogram(name)
		return func(w http.ResponseWriter, r *http.Request) {
			start := time.Now()
			h(w, r)
			hist.ObserveSince(start)
		}
	}

	mux.HandleFunc("/route", instrument(obs.MetricLatencyHTTPRoute, func(w http.ResponseWriter, r *http.Request) {
		q := r.URL.Query()
		src, ok := node(w, q, "src")
		if !ok {
			return
		}
		dst, ok := node(w, q, "dst")
		if !ok {
			return
		}
		ctx, cancel, ok := reqCtx(w, r, q)
		if !ok {
			return
		}
		defer cancel()
		rt, err := srv.UnicastCtx(ctx, src, dst)
		if err != nil {
			serveErr(w, err)
			return
		}
		a := newAnswer()
		a.b = appendRouteAnswer(a.b, cube, rt)
		a.send(w, http.StatusOK)
	}))

	mux.HandleFunc("/batch", instrument(obs.MetricLatencyHTTPBatch, func(w http.ResponseWriter, r *http.Request) {
		q := r.URL.Query()
		raw := q.Get("pairs")
		if raw == "" {
			httpErr(w, http.StatusBadRequest, errors.New(`missing "pairs" parameter (want "SRC-DST,SRC-DST,...")`))
			return
		}
		items := splitList(raw)
		if len(items) > safecube.MaxBatchPairs {
			httpErr(w, http.StatusRequestEntityTooLarge,
				fmt.Errorf("batch of %d pairs exceeds limit %d", len(items), safecube.MaxBatchPairs))
			return
		}
		pairs := make([]safecube.TrafficPair, 0, len(items))
		for _, item := range items {
			ab := strings.SplitN(item, "-", 2)
			if len(ab) != 2 {
				httpErr(w, http.StatusBadRequest, fmt.Errorf("bad pair %q, want SRC-DST", item))
				return
			}
			src, err := cube.Parse(ab[0])
			if err != nil {
				httpErr(w, http.StatusBadRequest, err)
				return
			}
			dst, err := cube.Parse(ab[1])
			if err != nil {
				httpErr(w, http.StatusBadRequest, err)
				return
			}
			pairs = append(pairs, safecube.TrafficPair{Src: src, Dst: dst})
		}
		ctx, cancel, ok := reqCtx(w, r, q)
		if !ok {
			return
		}
		defer cancel()
		routes, err := srv.BatchUnicastCtx(ctx, pairs)
		if err != nil {
			serveErr(w, err)
			return
		}
		a := newAnswer()
		a.b = appendBatchAnswer(a.b, cube, routedGen(srv, routes), routes)
		a.send(w, http.StatusOK)
	}))

	mux.HandleFunc("/routeall", instrument(obs.MetricLatencyHTTPRouteAll, func(w http.ResponseWriter, r *http.Request) {
		q := r.URL.Query()
		src, ok := node(w, q, "src")
		if !ok {
			return
		}
		ctx, cancel, ok := reqCtx(w, r, q)
		if !ok {
			return
		}
		defer cancel()
		all, err := srv.RouteAllCtx(ctx, src)
		if err != nil {
			serveErr(w, err)
			return
		}
		a := newAnswer()
		a.b = appendRouteAllAnswer(a.b, cube, routedGen(srv, all), all)
		a.send(w, http.StatusOK)
	}))

	mux.HandleFunc("/fault", instrument(obs.MetricLatencyHTTPFault, func(w http.ResponseWriter, r *http.Request) {
		q := r.URL.Query()
		op := q.Get("op")
		a, ok := node(w, q, "a")
		if !ok {
			return
		}
		var err error
		switch op {
		case "fail-node":
			err = srv.FailNode(a)
		case "recover-node":
			err = srv.RecoverNode(a)
		case "fail-link", "recover-link":
			b, ok := node(w, q, "b")
			if !ok {
				return
			}
			if op == "fail-link" {
				err = srv.FailLink(a, b)
			} else {
				err = srv.RecoverLink(a, b)
			}
		default:
			httpErr(w, http.StatusBadRequest,
				fmt.Errorf("bad op %q, want fail-node, recover-node, fail-link or recover-link", op))
			return
		}
		if err != nil {
			if errors.Is(err, safecube.ErrServerClosed) {
				httpErr(w, http.StatusServiceUnavailable, err)
				return
			}
			httpErr(w, http.StatusUnprocessableEntity, err)
			return
		}
		// 202: churn is asynchronous; the generation advances on publish.
		ack := newAnswer()
		ack.b = appendFaultAck(ack.b, srv.Generation(), srv.QueueDepth())
		ack.send(w, http.StatusAccepted)
	}))

	mux.HandleFunc("/probe", instrument(obs.MetricLatencyHTTPProbe, func(w http.ResponseWriter, r *http.Request) {
		a, ok := node(w, r.URL.Query(), "node")
		if !ok {
			return
		}
		// 503 for a faulty node so any status-driven prober (including
		// monitor.HTTPProber) reads it as a miss without parsing JSON.
		if srv.NodeFaulty(a) {
			writeJSON(w, http.StatusServiceUnavailable, map[string]any{
				"node": cube.Format(a), "faulty": true,
			})
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{
			"node": cube.Format(a), "faulty": false, "level": srv.Level(a),
		})
	}))

	mux.HandleFunc("/monitor", func(w http.ResponseWriter, r *http.Request) {
		if opts.mon == nil {
			httpErr(w, http.StatusNotFound, errors.New("monitor disabled (start slserve with -monitor-target)"))
			return
		}
		writeJSON(w, http.StatusOK, opts.mon.Status())
	})

	// /syndrome is always mounted: any slserve can be the tested system,
	// whether or not it also runs a diagnoser. The syndrome is collected
	// from ONE published snapshot, so every neighbor test in the sweep
	// observes the same fault-set generation.
	mux.HandleFunc("/syndrome", instrument(obs.MetricLatencyHTTPSyndrome, func(w http.ResponseWriter, r *http.Request) {
		q := r.URL.Query()
		seed := opts.diagSeed
		if raw := q.Get("seed"); raw != "" {
			v, err := strconv.ParseUint(raw, 10, 64)
			if err != nil {
				httpErr(w, http.StatusBadRequest, fmt.Errorf("bad seed %q, want an unsigned integer", raw))
				return
			}
			seed = v
		}
		adv := opts.diagAdv
		if raw := q.Get("adversary"); raw != "" {
			v, err := diagnose.ParseAdversary(raw)
			if err != nil {
				httpErr(w, http.StatusBadRequest, err)
				return
			}
			adv = v
		}
		syn := diagnose.Collect(srv.CurrentFaults(), diagnose.CollectOptions{Seed: seed, Adversary: adv})
		writeJSON(w, http.StatusOK, syn)
	}))

	mux.HandleFunc("/diagnosis", func(w http.ResponseWriter, r *http.Request) {
		if opts.diag == nil {
			httpErr(w, http.StatusNotFound, errors.New("diagnosis disabled (start slserve with -diagnose-target)"))
			return
		}
		writeJSON(w, http.StatusOK, opts.diag.Status())
	})

	mux.HandleFunc("/healthz", instrument(obs.MetricLatencyHTTPHealthz, func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{
			"generation":  srv.Generation(),
			"queue_depth": srv.QueueDepth(),
			"queue_cap":   opts.queueCap,
			"inflight":    srv.Inflight(),
			"nodes":       cube.Nodes(),
		})
	}))

	// Flight-recorder exposition: always mounted (the recorder is on by
	// default; with -no-flight these return empty snapshots).
	// ?limit=N truncates to the N newest records; ?format=text renders
	// the slmetrics-style table/transcript instead of JSON.
	mux.HandleFunc("/debug/flight", func(w http.ResponseWriter, r *http.Request) {
		q := r.URL.Query()
		limit := 0
		if raw := q.Get("limit"); raw != "" {
			n, err := strconv.Atoi(raw)
			if err != nil || n < 0 {
				httpErr(w, http.StatusBadRequest, fmt.Errorf("bad limit %q, want a non-negative integer", raw))
				return
			}
			limit = n
		}
		snap := srv.Flight().Snapshot(limit)
		if q.Get("format") == "text" {
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			_ = obs.WriteFlightText(w, snap)
			return
		}
		writeJSON(w, http.StatusOK, snap)
	})
	mux.HandleFunc("/debug/incidents", func(w http.ResponseWriter, r *http.Request) {
		snap := srv.Flight().Incidents()
		if r.URL.Query().Get("format") == "text" {
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			_ = obs.WriteIncidentsText(w, snap, func(a int) string {
				return cube.Format(safecube.NodeID(a))
			})
			return
		}
		writeJSON(w, http.StatusOK, snap)
	})

	if opts.pprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		mux.Handle("/debug/vars", expvar.Handler())
	}

	return mux
}

// serveErr maps an engine error on the query path to its status code:
// shedding, draining and deadline expiry each get a distinct one so
// clients (and the slload report) can tell them apart.
func serveErr(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, safecube.ErrServerOverload):
		httpErr(w, http.StatusTooManyRequests, err)
	case errors.Is(err, safecube.ErrServerDraining):
		httpErr(w, http.StatusServiceUnavailable, err)
	case errors.Is(err, context.DeadlineExceeded):
		httpErr(w, http.StatusGatewayTimeout, err)
	case errors.Is(err, context.Canceled):
		// The client went away; 499 is the conventional (nginx) code.
		httpErr(w, 499, err)
	default:
		httpErr(w, http.StatusInternalServerError, err)
	}
}

// routedGen returns the generation the routes were routed on. Every
// route of one answer carries the same one; an answer with no route
// cannot be mislabeled, so it reads the current generation.
func routedGen(srv *safecube.Server, routes []*safecube.Route) uint64 {
	for _, r := range routes {
		if r != nil {
			return r.Generation
		}
	}
	return srv.Generation()
}

// writeJSON encodes v for the cold endpoints and error bodies; the
// route answers are appended by hand (answer.go).
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func httpErr(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}

// newCube builds the cube the flags describe: GH(shape) when shape is
// set, else Q_n.
func newCube(n int, shape string) (*safecube.Cube, error) {
	if shape == "" {
		return safecube.New(n)
	}
	radix, err := safecube.ParseRadix(shape)
	if err != nil {
		return nil, err
	}
	return safecube.NewGeneralized(radix...)
}

// splitList splits a comma-separated value, trimming blanks.
func splitList(s string) []string {
	if s == "" {
		return nil
	}
	parts := strings.Split(s, ",")
	out := parts[:0]
	for _, p := range parts {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}
