// Command slroute performs one safety-level unicast in a faulty
// hypercube and prints the admission decision and the path.
//
// Usage:
//
//	slroute -n 4 -faults 0011,0100,0110,1001 -from 1110 -to 0001
//	slroute -n 4 -faults 0000,0100,1100,1110 -links 1000-1001 -from 1101 -to 1000
//	slroute -n 7 -seed 7 -random 6 -from 0000000 -to 1111111 -levels
//	slroute -radix 2x3x2 -faults 011,100,111,121 -levels -from 010 -to 101
//	slroute -radix 3x3 -links 00-01 -from 00 -to 01 -trace
//
// Addresses are n-bit binary strings (or mixed-radix digit strings with
// -radix), matching the paper's notation. Exit status: 0 delivered (or
// no route requested), 1 unicast aborted, 2 usage error.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	safecube "repro"
)

func main() {
	code, err := run(os.Args[1:], os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "slroute:", err)
		if code == 0 {
			code = 2
		}
	}
	os.Exit(code)
}

// run executes one invocation; it returns the process exit code plus
// any usage/validation error. Split from main so the CLI is testable.
func run(args []string, out io.Writer) (int, error) {
	fs := flag.NewFlagSet("slroute", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	n := fs.Int("n", 4, "cube dimension")
	radix := fs.String("radix", "", "generalized hypercube shape, e.g. 2x3x2 (dimension n-1 first, like the paper); overrides -n")
	faultList := fs.String("faults", "", "comma-separated faulty node addresses")
	linkList := fs.String("links", "", "comma-separated faulty links, each as addr-addr")
	random := fs.Int("random", 0, "inject this many uniform random faults")
	seed := fs.Uint64("seed", 1, "seed for -random")
	from := fs.String("from", "", "source address")
	to := fs.String("to", "", "destination address")
	levels := fs.Bool("levels", false, "print the full safety-level table")
	trace := fs.Bool("trace", false, "print the per-hop decision trace of the unicast")
	if err := fs.Parse(args); err != nil {
		return 2, err
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
	for _, l := range splitList(*linkList) {
		ends := strings.SplitN(l, "-", 2)
		if len(ends) != 2 {
			return 2, fmt.Errorf("bad link %q, want addr-addr", l)
		}
		a, err := c.Parse(ends[0])
		if err != nil {
			return 2, err
		}
		b, err := c.Parse(ends[1])
		if err != nil {
			return 2, err
		}
		if err := c.FailLink(a, b); err != nil {
			return 2, err
		}
	}
	if *random > 0 {
		if err := c.InjectRandomFaults(*seed, *random); err != nil {
			return 2, err
		}
	}

	lv := c.ComputeLevels()
	fmt.Fprintf(out, "%s; levels stabilized in %d rounds; connected: %v\n",
		c, lv.Rounds(), c.Connected())
	if *levels {
		for a := 0; a < c.Nodes(); a++ {
			id := safecube.NodeID(a)
			mark := ""
			if c.NodeFaulty(id) {
				mark = " (faulty)"
			} else if lv.Safe(id) {
				mark = " (safe)"
			}
			own := ""
			if lv.OwnLevel(id) != lv.Level(id) {
				own = fmt.Sprintf(" own=%d", lv.OwnLevel(id))
			}
			fmt.Fprintf(out, "  S(%s) = %d%s%s\n", c.Format(id), lv.Level(id), own, mark)
		}
	}

	if *from == "" || *to == "" {
		return 0, nil
	}
	src, err := c.Parse(*from)
	if err != nil {
		return 2, err
	}
	dst, err := c.Parse(*to)
	if err != nil {
		return 2, err
	}

	var r *safecube.Route
	if *trace {
		var tr *safecube.RouteTrace
		r, tr = c.UnicastTraced(src, dst)
		fmt.Fprint(out, tr.Format(func(a int) string { return c.Format(safecube.NodeID(a)) }))
	} else {
		r = c.Unicast(src, dst)
	}
	fmt.Fprintf(out, "unicast %s -> %s: H = %d, condition %s, outcome %s\n",
		*from, *to, r.Hamming, r.Condition, r.Outcome)
	switch {
	case r.Err != nil:
		fmt.Fprintf(out, "  error: %v\n", r.Err)
		return 1, nil
	case r.Outcome == safecube.Failure:
		fmt.Fprintln(out, "  aborted at the source: no admission condition held")
		fmt.Fprintln(out, "  (cause: too many faults in the neighborhood, or a network partition)")
		return 1, nil
	default:
		fmt.Fprintf(out, "  path (%d hops): %s\n", r.Hops(), r.PathString(c))
		return 0, nil
	}
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
