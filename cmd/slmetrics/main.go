// Command slmetrics runs a unicast traffic sweep over a faulty
// hypercube with full instrumentation and exposes the collected metrics:
// GS rounds-to-stabilize and per-link message counts (distributed
// engine), admission-condition and outcome counters, hop/stretch
// histograms, and the level-cache hit ratio.
//
// Usage:
//
//	slmetrics -n 7 -random 12 -seed 3 -pairs 128 -format prom
//	slmetrics -n 6 -random 6 -pairs 64 -format json
//	slmetrics -radix 2x3x2 -faults 011,100,111,121 -pairs 32 -format prom
//
// With -radix the sweep runs over a generalized hypercube (Section 4.2)
// instead of a binary cube; the same GS, batch-unicast and sequential
// phases run through the topology-generic engine and facade.
//
// The registry is dumped to stdout in the chosen format ("prom", "json"
// or "both"). A running system's metrics come from slserve's /metrics.
// Exit status: 0 ok, 2 usage error.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	safecube "repro"
	"repro/internal/stats"
)

func main() {
	code, err := run(os.Args[1:], os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "slmetrics:", err)
		if code == 0 {
			code = 2
		}
	}
	os.Exit(code)
}

// run executes one invocation; split from main so the CLI is testable.
func run(args []string, out io.Writer) (int, error) {
	fs := flag.NewFlagSet("slmetrics", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	n := fs.Int("n", 6, "cube dimension")
	radix := fs.String("radix", "", "generalized hypercube shape, e.g. 2x3x2 (dimension n-1 first, like the paper); overrides -n")
	faultList := fs.String("faults", "", "comma-separated faulty node addresses")
	random := fs.Int("random", 0, "inject this many uniform random faults")
	seed := fs.Uint64("seed", 1, "seed for -random and the traffic pattern")
	pairs := fs.Int("pairs", 64, "number of unicast requests in the sweep")
	traced := fs.Int("traced", 4, "record full decision traces for this many requests")
	format := fs.String("format", "both", "dump format: prom, json or both")
	digest := fs.Bool("digest", false, "also print the latency/size quantile digest table")
	if err := fs.Parse(args); err != nil {
		return 2, err
	}
	switch *format {
	case "prom", "json", "both":
	default:
		return 2, fmt.Errorf("bad -format %q, want prom, json or both", *format)
	}

	reg := safecube.NewRegistry()
	reg.KeepTraces(*traced)

	c, err := newCube(*n, *radix)
	if err != nil {
		return 2, err
	}
	c.Instrument(reg)
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

	if err := runSweep(c, *seed, *pairs, *traced); err != nil {
		return 2, err
	}
	fmt.Fprintf(out, "# %s; swept %d pairs\n", c, *pairs)
	if gs := reg.LastGS(); gs != nil {
		fmt.Fprintf(out, "# %s\n", gs.Summary())
	}

	if *format == "json" || *format == "both" {
		if err := reg.WriteJSON(out); err != nil {
			return 2, err
		}
	}
	if *format == "prom" || *format == "both" {
		if err := reg.WritePrometheus(out); err != nil {
			return 2, err
		}
	}
	if *digest {
		if err := reg.WriteDigest(out); err != nil {
			return 2, err
		}
	}
	return 0, nil
}

// runSweep drives one full instrumented traffic sweep: a distributed GS
// phase (rounds + per-link message counts), batched distributed unicasts
// (protocol message cost), and the same pairs through the sequential
// router (admission and outcome metrics), tracing the first traced
// requests.
func runSweep(c *safecube.Cube, seed uint64, pairs, traced int) error {
	rng := stats.NewRNG(seed * 7919)
	var reqs []safecube.TrafficPair
	for tries := 0; len(reqs) < pairs && tries < pairs*100; tries++ {
		src := safecube.NodeID(rng.Intn(c.Nodes()))
		dst := safecube.NodeID(rng.Intn(c.Nodes()))
		if src == dst || c.NodeFaulty(src) || c.NodeFaulty(dst) {
			continue
		}
		reqs = append(reqs, safecube.TrafficPair{Src: src, Dst: dst})
	}
	if len(reqs) == 0 {
		return fmt.Errorf("no routable pairs in %s", c)
	}

	// Warm the sequential level cache first so the distributed GS trace
	// (the one with per-link message counts) is the registry's LastGS.
	c.ComputeLevels()
	d := c.Distributed()
	defer d.Close()
	d.RunGS()
	for lo := 0; lo < len(reqs); lo += d.MaxBatch() {
		hi := lo + d.MaxBatch()
		if hi > len(reqs) {
			hi = len(reqs)
		}
		if _, err := d.UnicastBatch(reqs[lo:hi]); err != nil {
			return err
		}
	}

	for i, p := range reqs {
		if i < traced {
			c.UnicastTraced(p.Src, p.Dst)
		} else {
			c.Unicast(p.Src, p.Dst)
		}
	}
	return nil
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

// splitList splits a comma-separated flag value, trimming blanks.
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
