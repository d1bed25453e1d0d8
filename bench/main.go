// Command slbench is the router's one rerunnable benchmark. It starts
// the shipped cmd/slserve as a subprocess with its default settings,
// passes it only inputs generated from -seed (a cube dimension and a
// fault list), drives it closed loop from one or two client goroutines
// over the binary wire protocol or HTTP, checks every answer, and prints
// every metric by name with its unit. Timings are scaled to a reference
// machine speed probed during the run (calib.go). The last line on
// stdout is one JSON object per workload:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"setup_s": {"value": 0.27, "unit": "s"}, ...}}
//
// Untraced (-trace 0) the metrics are the end-to-end ones; traced
// (-trace 1 or -trace FILE) they are the per-layer ones, timed around
// each layer's public calls on the same inputs, and the spans are
// written to the file at exit. With -runs K every selected workload
// runs K times, interleaved, and each metric's median, quartiles and
// spreads are printed. See bench/README.md.
//
// Usage (bench/run.sh builds slbench and slserve first):
//
//	bash bench/run.sh --workload q10-unicast --seed 1 --seconds 10 --trace 0
//	bash bench/run.sh -seed 1
//	bash bench/run.sh -workload q20-batch -trace 1
//	bash bench/run.sh -runs 5 -seconds 10
//
// Exit status: 0 ok, 1 a failed run or a correctness-gate mismatch,
// 2 usage error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
)

func main() {
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		sig := <-sigs
		servers.killAll()
		fmt.Fprintln(os.Stderr, "slbench:", sig)
		os.Exit(1)
	}()
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("slbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: q10-unicast, q20-batch, q20-churn or q10-http (empty runs all)")
	seed := fs.Uint64("seed", 1, "seed every input is generated from")
	seconds := fs.Float64("seconds", 10, "length of the measured window of one run, in seconds")
	traceArg := fs.String("trace", "0", "0 for the end-to-end metrics; 1, or a file name, for the per-layer metrics with spans written to that file (1 means .bench_build/trace.json)")
	runs := fs.Int("runs", 0, "run each selected workload this many times, interleaved, seeds seed.. seed+runs-1, and print each metric's spread")
	bin := fs.String("slserve", "", "path to a built cmd/slserve binary")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *bin == "" || *seconds <= 0 || *runs < 0 || fs.NArg() > 0 {
		fmt.Fprintln(stderr, "slbench: need -slserve PATH, a positive -seconds and no extra arguments (bench/run.sh supplies -slserve)")
		return 2
	}
	ws := workloads
	if *name != "" {
		w, err := workloadByName(*name)
		if err != nil {
			fmt.Fprintln(stderr, "slbench:", err)
			return 2
		}
		ws = []workload{w}
	}
	cfg := config{slserve: *bin, seed: *seed, seconds: *seconds}
	spansPath := ""
	switch *traceArg {
	case "0", "":
	case "1":
		cfg.trace, spansPath = true, ".bench_build/trace.json"
	default:
		cfg.trace, spansPath = true, *traceArg
	}
	if *runs > 0 {
		return repeat(ws, cfg, *runs, stdout, stderr)
	}

	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	code := 0
	for _, w := range ws {
		res, err := runWorkload(w, cfg, tr)
		if err != nil {
			fmt.Fprintf(stderr, "slbench: %s: %v\n", w.name, err)
			return 1
		}
		report(stderr, w, cfg, res)
		b, err := json.Marshal(res)
		if err != nil {
			fmt.Fprintf(stderr, "slbench: %s: %v\n", w.name, err)
			return 1
		}
		fmt.Fprintln(stdout, string(b))
		if !res.Correct {
			code = 1
		}
	}
	if tr != nil {
		if err := tr.write(spansPath); err != nil {
			fmt.Fprintln(stderr, "slbench:", err)
			return 1
		}
		fmt.Fprintf(stderr, "# %d spans (%d dropped) written to %s\n", len(tr.spans), tr.dropped, spansPath)
	}
	return code
}

// report prints one run's metrics and notes for a reader.
func report(w io.Writer, wl workload, cfg config, res *result) {
	fmt.Fprintf(w, "# %s seed %d: correct=%v attempted=%d failed=%d\n", wl.name, cfg.seed, res.Correct, res.Attempted, res.Failed)
	for _, cat := range [][]metricDef{e2eMetrics, layerMetrics} {
		for _, d := range cat {
			if v, ok := res.Metrics[d.name]; ok {
				fmt.Fprintf(w, "  %-34s %14.4f %s\n", d.name, v.Value, v.Unit)
			}
		}
	}
	for _, n := range res.notes {
		fmt.Fprintln(w, "  #", n)
	}
}

// repeat runs every workload runs times, interleaving workloads within
// each repetition so drift on the machine spreads over all of them, and
// prints each metric's median, quartiles, interquartile range and full
// range over the runs.
func repeat(ws []workload, cfg config, runs int, stdout, stderr io.Writer) int {
	vals := map[string]map[string][]float64{}
	for r := 0; r < runs; r++ {
		for _, w := range ws {
			c := cfg
			c.seed = cfg.seed + uint64(r)
			var tr *tracer
			if c.trace {
				tr = newTracer()
			}
			res, err := runWorkload(w, c, tr)
			if err != nil {
				fmt.Fprintf(stderr, "slbench: %s seed %d: %v\n", w.name, c.seed, err)
				return 1
			}
			report(stderr, w, c, res)
			if !res.Correct {
				return 1
			}
			if vals[w.name] == nil {
				vals[w.name] = map[string][]float64{}
			}
			for n, v := range res.Metrics {
				vals[w.name][n] = append(vals[w.name][n], v.Value)
			}
		}
	}
	fmt.Fprintf(stdout, "%-12s %-34s %-6s %12s %12s %12s %9s %9s\n", "workload", "metric", "unit", "median", "q1", "q3", "iqr/med", "range/med")
	for _, w := range ws {
		for _, cat := range [][]metricDef{e2eMetrics, layerMetrics} {
			for _, d := range cat {
				xs, ok := vals[w.name][d.name]
				if !ok {
					continue
				}
				sp := spreadOf(xs)
				fmt.Fprintf(stdout, "%-12s %-34s %-6s %12.4f %12.4f %12.4f %9.4f %9.4f\n",
					w.name, d.name, d.unit, sp.Median, sp.Q1, sp.Q3, sp.IQRShare, sp.RangeShare)
			}
		}
	}
	return 0
}
