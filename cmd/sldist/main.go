// Command sldist runs the paper's protocols on the goroutine-per-node
// distributed engine: one goroutine per nonfaulty node, channels as
// links. It reports the real communication cost (rounds, messages) of
// the GS status protocol and then routes a batch of random unicasts hop
// by hop, optionally killing nodes between batches to exercise the
// state-change-driven recomputation.
//
// Usage:
//
//	sldist -n 7 -faults 10 -unicasts 50 -kills 2 -seed 7
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	safecube "repro"
	"repro/internal/stats"
)

func main() {
	code, err := run(os.Args[1:], os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sldist:", err)
	}
	os.Exit(code)
}

// run executes one invocation and returns the process exit code: 2
// with the error on a bad flag or cube. Split from main so the CLI is
// testable.
func run(args []string, out io.Writer) (int, error) {
	fs := flag.NewFlagSet("sldist", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	n := fs.Int("n", 7, "cube dimension")
	nFaults := fs.Int("faults", 0, "uniform random node faults")
	unicasts := fs.Int("unicasts", 20, "random unicasts per batch")
	kills := fs.Int("kills", 0, "fail-stop events (each followed by a GS recomputation and another batch)")
	seed := fs.Uint64("seed", 1, "RNG seed")
	async := fs.Bool("async", false, "use the asynchronous GS protocol (quiescence-driven) instead of n-1 synchronous rounds")
	if err := fs.Parse(args); err != nil {
		return 2, err
	}

	c, err := safecube.New(*n)
	if err != nil {
		return 2, err
	}
	if *nFaults > 0 {
		if err := c.InjectRandomFaults(*seed, *nFaults); err != nil {
			return 2, err
		}
	}
	rng := stats.NewRNG(*seed ^ 0xD15717)

	d := c.Distributed()
	defer d.Close()

	runGS := func() {
		if *async {
			d.RunGSAsync()
		} else {
			d.RunGS()
		}
	}
	runGS()
	fmt.Fprintf(out, "%s\n", c)
	if *async {
		fmt.Fprintf(out, "distributed async GS: %d level updates, %d messages\n",
			d.Updates(), d.MessagesSent())
	} else {
		fmt.Fprintf(out, "distributed GS: stabilized at round %d (bound n-1 = %d), %d messages\n",
			d.StableRound(), *n-1, d.MessagesSent())
	}

	batch := func(label string) {
		delivered, optimal, failed := 0, 0, 0
		hops := 0
		for i := 0; i < *unicasts; i++ {
			src := safecube.NodeID(rng.Intn(c.Nodes()))
			dst := safecube.NodeID(rng.Intn(c.Nodes()))
			if c.NodeFaulty(src) || c.NodeFaulty(dst) || src == dst {
				continue
			}
			r := d.Unicast(src, dst)
			switch r.Outcome {
			case safecube.Failure:
				failed++
			case safecube.Optimal:
				delivered++
				optimal++
				hops += r.Hops()
			default:
				delivered++
				hops += r.Hops()
			}
		}
		avg := 0.0
		if delivered > 0 {
			avg = float64(hops) / float64(delivered)
		}
		fmt.Fprintf(out, "%s: delivered %d (optimal %d), aborted-at-source %d, avg hops %.2f\n",
			label, delivered, optimal, failed, avg)
	}
	batch("batch 0")

	for k := 1; k <= *kills; k++ {
		var victim safecube.NodeID
		for {
			victim = safecube.NodeID(rng.Intn(c.Nodes()))
			if !c.NodeFaulty(victim) {
				break
			}
		}
		if err := d.KillNode(victim); err != nil {
			return 2, err
		}
		before := d.MessagesSent()
		runGS()
		fmt.Fprintf(out, "killed %s; state-change-driven GS recomputation: +%d messages\n",
			c.Format(victim), d.MessagesSent()-before)
		batch(fmt.Sprintf("batch %d", k))
	}
	return 0, nil
}
