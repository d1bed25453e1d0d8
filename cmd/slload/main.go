// Command slload is the deterministic load generator for the serving
// stack: it drives either a remote slserve (-target URL) or an
// in-process serving engine (-n DIM) with a seeded request mix, an
// optional churn storm, closed- or open-loop pacing, and prints an
// HDR-style JSON latency report.
//
// Usage:
//
//	slload [flags]
//
// Target selection:
//
//	-target URL   drive a running slserve at URL (e.g. http://localhost:8080);
//	              -n must match the server's dimension for address synthesis
//	-wire ADDR    drive a slserve wire-protocol listener (host:port, the
//	              server's -wire-addr) over the binary protocol instead of
//	              HTTP; overrides -target. -n must match the server
//	-wire-conns K wire client connection pool size (0 = one per worker)
//	-coalesce N   merge concurrent route calls into wire batches of up to
//	              N pairs (0 disables client-side coalescing)
//	-n DIM        hypercube dimension (default 8); without -target this
//	              also builds the in-process engine
//	-faults K     pre-fail K random nodes before the run (in-process only)
//	-srv-rate R   in-process engine admission rate, unicasts/sec (0 = off)
//	-srv-burst B  in-process engine admission burst
//
// Load shape:
//
//	-workers N    concurrent workers (default 8)
//	-rate R       open-loop offered rate in requests/sec across all
//	              workers; 0 (default) means closed loop
//	-duration D   measured window (default 5s)
//	-warmup D     warmup window, excluded from the digest (default 500ms)
//	-deadline D   per-request context deadline (0 = none)
//	-mix SPEC     request mix weights, e.g. route:8,batch:1,routeall:1
//	              (default route:1)
//	-batch N      pairs per batch request (default 16). Against -target
//	              or -wire a batch may carry at most the server's 4096
//	              pairs and routeall needs -n 12 or less; slload exits 2
//	              before connecting otherwise
//	-seed N       RNG seed; same seed, same offered request stream
//
// Churn storm:
//
//	-churn D      toggle one victim node every D (0 = no churn)
//	-victims K    size of the rotating victim set (default 8)
//	-scenario P   replace the rotating storm with a seeded correlated-fault
//	              scenario (subcube, dimcut, rolling, flap or partition);
//	              the same -seed replays the identical schedule against a
//	              local engine or a remote -target. Paced by -churn, or
//	              spread evenly across the run when -churn is 0
//	-waves N      scenario wave count (0 = generator default)
//	-subdim K     scenario subcube dimension (0 = generator default)
//	-diagnosed    run the -scenario schedule through PMC syndrome
//	              diagnosis (internal/diagnose.ReplaySchedule) and drive
//	              the target with the DIAGNOSED schedule instead of the
//	              declared one; exits 2 if any step decodes ambiguous
//	              (fault count past the diagnosability bound — keep the
//	              profile's simultaneous node faults within -n)
//	-adversary P  faulty-tester policy for -diagnosed: truthful,
//	              stealth, slander, invert or random (default invert)
//
// Output:
//
//	-o FILE       write the JSON report to FILE instead of stdout
//	-min-ok N     exit 1 unless at least N requests completed OK
//	              (a smoke gate)
//	-only-ok      exit 1 if ANY request finished in a non-OK class
//	              (the only-OK digest gate)
//	-flight       after the run, print the target's flight-recorder
//	              summary (records and incidents) to stderr; against a
//	              -target it scrapes /debug/flight and /debug/incidents
//
// The JSON report's "lag" object, present in open loop, and a
// "# generator lag" line on stderr give the p99 of the time from each
// request's scheduled start to its issue and how many requests were
// issued more than one interval late: a cell where these are not near
// zero did not offer the -rate it was asked to. A request still
// unanswered loadgen.LateGrace (2s) after the measured window closes
// is cut off and counted in the deadline class, so a silent server
// cannot hold slload.
//
// Exit status: 0 on success, 1 if -min-ok is not met, 2 on usage or
// setup errors.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/diagnose"
	"repro/internal/faults"
	"repro/internal/loadgen"
	"repro/internal/serve"
	"repro/internal/stats"
	"repro/internal/topo"
	"repro/internal/wire"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(argv []string, stdout, stderr *os.File) int {
	fs := flag.NewFlagSet("slload", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		target   = fs.String("target", "", "slserve base URL; empty runs an in-process engine")
		wireAddr = fs.String("wire", "", "slserve wire-protocol address (host:port); overrides -target")
		conns    = fs.Int("wire-conns", 0, "wire client connection pool size (0 means one per worker)")
		coalesce = fs.Int("coalesce", 0, "coalesce concurrent route calls into wire batches of up to N pairs (0 disables)")
		dim      = fs.Int("n", 8, "hypercube dimension")
		nFaults  = fs.Int("faults", 0, "pre-failed random nodes (in-process only)")
		srvRate  = fs.Float64("srv-rate", 0, "in-process admission rate, unicasts/sec (0 = off)")
		srvBurst = fs.Int("srv-burst", 0, "in-process admission burst")

		workers  = fs.Int("workers", 8, "concurrent workers")
		rate     = fs.Float64("rate", 0, "open-loop offered rate, req/sec (0 = closed loop)")
		duration = fs.Duration("duration", 5*time.Second, "measured window")
		warmup   = fs.Duration("warmup", 500*time.Millisecond, "warmup window")
		deadline = fs.Duration("deadline", 0, "per-request deadline (0 = none)")
		mixSpec  = fs.String("mix", "route:1", "request mix, e.g. route:8,batch:1,routeall:1")
		batch    = fs.Int("batch", 16, "pairs per batch request")
		seed     = fs.Uint64("seed", 1, "RNG seed")

		churn   = fs.Duration("churn", 0, "churn-storm toggle interval (0 = off)")
		victims = fs.Int("victims", 8, "churn victim set size")

		scenario  = fs.String("scenario", "", "replay a seeded correlated-fault scenario: subcube, dimcut, rolling, flap or partition")
		waves     = fs.Int("waves", 0, "scenario wave count (0 = generator default)")
		subdim    = fs.Int("subdim", 0, "scenario subcube dimension (0 = generator default)")
		diagnosed = fs.Bool("diagnosed", false, "drive the -scenario schedule through PMC syndrome diagnosis instead of declared faults")
		adversary = fs.String("adversary", "", "faulty-tester policy for -diagnosed (default invert)")

		out    = fs.String("o", "", "write JSON report to FILE (default stdout)")
		minOK  = fs.Int64("min-ok", 0, "exit 1 unless at least this many requests completed OK")
		onlyOK = fs.Bool("only-ok", false, "exit 1 if any request finished in a non-OK class")
		flight = fs.Bool("flight", false, "after the run, print the target's flight-recorder summary to stderr")
	)
	if err := fs.Parse(argv); err != nil {
		return 2
	}

	mix, err := parseMix(*mixSpec)
	if err != nil {
		fmt.Fprintln(stderr, "slload:", err)
		return 2
	}

	cube, err := topo.NewCube(*dim)
	if err != nil {
		fmt.Fprintln(stderr, "slload:", err)
		return 2
	}
	if *target != "" || *wireAddr != "" {
		if err := checkRemoteShapes(mix, *batch, cube.Nodes()); err != nil {
			fmt.Fprintln(stderr, "slload:", err)
			return 2
		}
	}

	cfg := loadgen.Config{
		Seed:         *seed,
		Workers:      *workers,
		Rate:         *rate,
		Duration:     *duration,
		Warmup:       *warmup,
		Deadline:     *deadline,
		Mix:          mix,
		BatchSize:    *batch,
		ChurnEvery:   *churn,
		ChurnVictims: *victims,
	}
	if *scenario != "" {
		prof, err := faults.ParseScenarioProfile(*scenario)
		if err != nil {
			fmt.Fprintln(stderr, "slload:", err)
			return 2
		}
		sched, err := faults.ScenarioSchedule(cube, prof, *seed, faults.ScenarioOptions{
			Waves:  *waves,
			Subdim: *subdim,
		})
		if err != nil {
			fmt.Fprintln(stderr, "slload:", err)
			return 2
		}
		if *diagnosed {
			adv, err := diagnose.ParseAdversary(*adversary)
			if err != nil {
				fmt.Fprintln(stderr, "slload:", err)
				return 2
			}
			sched, err = diagnose.ReplaySchedule(cube, sched, diagnose.ReplayOptions{
				Seed:      *seed,
				Adversary: adv,
			})
			if err != nil {
				fmt.Fprintln(stderr, "slload:", err)
				return 2
			}
		}
		cfg.Schedule = sched
		cfg.Scenario = *scenario
	}

	var tgt loadgen.Target
	var localSvc *serve.Service
	if *wireAddr != "" {
		// The server runs one connection's frames one at a time, so
		// the default gives each worker its own connection.
		nc := *conns
		if nc <= 0 {
			nc = max(1, *workers)
		}
		cl, err := wire.Dial(*wireAddr, wire.ClientOptions{Conns: nc})
		if err != nil {
			fmt.Fprintln(stderr, "slload:", err)
			return 2
		}
		defer cl.Close()
		wt := loadgen.WireTarget{Client: cl, N: cube.Nodes()}
		if *coalesce > 0 {
			co := wire.NewCoalescer(cl, wire.CoalescerOptions{
				MaxBatch: *coalesce,
				Deadline: *deadline,
			})
			defer co.Close()
			wt.Coalescer = co
		}
		tgt = wt
	} else if *target != "" {
		tgt = loadgen.HTTPTarget{
			Base:   *target,
			N:      cube.Nodes(),
			Format: func(a int) string { return cube.Format(topo.NodeID(a)) },
		}
	} else {
		set := faults.NewSet(cube)
		if *nFaults > 0 {
			if err := faults.InjectUniform(set, stats.NewRNG(*seed).Split(0xFA17), *nFaults); err != nil {
				fmt.Fprintln(stderr, "slload:", err)
				return 2
			}
		}
		svc, err := serve.New(set, serve.Options{
			QueueDepth: 256,
			Rate:       *srvRate,
			Burst:      *srvBurst,
		})
		if err != nil {
			fmt.Fprintln(stderr, "slload:", err)
			return 2
		}
		defer svc.Close()
		localSvc = svc
		tgt = loadgen.LocalTarget{Svc: svc}
	}

	rep := loadgen.Run(tgt, cfg)

	enc := json.NewEncoder(stdout)
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintln(stderr, "slload:", err)
			return 2
		}
		defer f.Close()
		enc = json.NewEncoder(f)
	}
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		fmt.Fprintln(stderr, "slload:", err)
		return 2
	}

	fmt.Fprintf(stderr, "# %s loop: %d ops (%.0f ok/s), classes %v, churn %d, p50 %.0fµs p99 %.0fµs p999 %.0fµs\n",
		rep.Mode, rep.Ops, rep.OKPerSec, rep.Classes, rep.ChurnEvents,
		rep.Latency.P50Us, rep.Latency.P99Us, rep.Latency.P999Us)
	if rep.Lag != nil {
		fmt.Fprintf(stderr, "# generator lag: p99 %.0fµs, %d of %d requests issued more than one interval late\n",
			rep.Lag.P99Us, rep.Lag.Behind, rep.Ops)
	}
	if *scenario != "" {
		label := *scenario
		if *diagnosed {
			label += " (diagnosed)"
		}
		fmt.Fprintf(stderr, "# scenario %s: replayed %d/%d events (%d errors)\n",
			label, rep.ChurnEvents, len(cfg.Schedule), rep.ChurnErrors)
	}

	if *flight {
		if err := printFlight(stderr, localSvc, *target); err != nil {
			fmt.Fprintln(stderr, "slload: flight summary:", err)
		}
	}

	if ok := rep.Classes[loadgen.ClassOK]; ok < *minOK {
		fmt.Fprintf(stderr, "slload: only %d requests completed OK, need %d\n", ok, *minOK)
		return 1
	}
	if *onlyOK {
		for class, n := range rep.Classes {
			if class != loadgen.ClassOK && n > 0 {
				fmt.Fprintf(stderr, "slload: -only-ok violated: %d requests in class %q\n", n, class)
				return 1
			}
		}
	}
	return 0
}

// printFlight reports the flight-recorder state after a run: for an
// in-process engine it reads the recorder directly, for an HTTP target
// it scrapes the slserve /debug endpoints.
func printFlight(stderr *os.File, svc *serve.Service, target string) error {
	if svc != nil {
		fl := svc.Flight()
		if fl == nil {
			fmt.Fprintln(stderr, "# flight: recorder disabled")
			return nil
		}
		snap := fl.Snapshot(0)
		inc := fl.Incidents()
		fmt.Fprintf(stderr, "# flight: %d requests recorded (%d retained), %d incidents (%d retained)\n",
			snap.Issued, len(snap.Records), inc.Total, len(inc.Incidents))
		return nil
	}
	issued, err := fetchCount(target+"/debug/flight?limit=1", "issued")
	if err != nil {
		return err
	}
	total, err := fetchCount(target+"/debug/incidents", "total")
	if err != nil {
		return err
	}
	fmt.Fprintf(stderr, "# flight: %d requests recorded, %d incidents\n", issued, total)
	return nil
}

// fetchCount GETs a JSON endpoint and returns the named integer field.
func fetchCount(url, field string) (int64, error) {
	resp, err := http.Get(url)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("%s: HTTP %s", url, resp.Status)
	}
	dec := json.NewDecoder(resp.Body)
	dec.UseNumber()
	var body map[string]any
	if err := dec.Decode(&body); err != nil {
		return 0, err
	}
	num, ok := body[field].(json.Number)
	if !ok {
		return 0, fmt.Errorf("%s: missing %q field", url, field)
	}
	n, err := num.Int64()
	if err != nil {
		return 0, fmt.Errorf("%s: bad %q field: %v", url, field, err)
	}
	return n, nil
}

// checkRemoteShapes refuses a mix whose requests a remote slserve
// would refuse (HTTP 413, wire CodeTooLarge): a batch of more than
// serve.MaxBatchPairs pairs, or a fan-out of more than that many
// routes. The in-process engine has no such limit.
func checkRemoteShapes(mix loadgen.Mix, batch, nodes int) error {
	if mix.Batch > 0 && batch > serve.MaxBatchPairs {
		return fmt.Errorf("-batch %d exceeds the server's limit of %d pairs per batch", batch, serve.MaxBatchPairs)
	}
	if routes := nodes - 1; mix.RouteAll > 0 && routes > serve.MaxBatchPairs {
		return fmt.Errorf("routeall fans out %d routes, past the server's limit of %d routes", routes, serve.MaxBatchPairs)
	}
	return nil
}

// parseMix parses "route:8,batch:1,routeall:1" into a Mix.
func parseMix(spec string) (loadgen.Mix, error) {
	var m loadgen.Mix
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		kind, weight, found := strings.Cut(part, ":")
		w := 1
		if found {
			var err error
			if w, err = strconv.Atoi(strings.TrimSpace(weight)); err != nil || w < 0 {
				return m, fmt.Errorf("bad mix weight %q", part)
			}
		}
		switch strings.TrimSpace(kind) {
		case "route":
			m.Route = w
		case "batch":
			m.Batch = w
		case "routeall":
			m.RouteAll = w
		default:
			return m, fmt.Errorf("unknown mix kind %q (want route, batch, routeall)", kind)
		}
	}
	if m.Route+m.Batch+m.RouteAll == 0 {
		return m, fmt.Errorf("mix %q admits no requests", spec)
	}
	return m, nil
}
