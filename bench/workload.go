package main

import (
	"fmt"

	"repro/internal/faults"
	"repro/internal/stats"
	"repro/internal/topo"
	"repro/internal/wire"
)

// op is the request shape a workload's clients send.
type op int

const (
	opUnicast op = iota // one pair per OpUnicast frame
	opBatch             // batchSize pairs per OpBatch frame
	opHTTP              // one pair per GET /route
)

// workload is one set of inputs the benchmark drives against a fresh
// slserve. Each stresses a different layer; the why line says which.
type workload struct {
	name    string
	dim     int
	faults  int // uniform random node faults the server starts with
	op      op
	clients int  // closed-loop client goroutines, one connection each
	churn   bool // replay the flap scenario during the window
	why     string
}

var workloads = []workload{
	{name: "q10-unicast", dim: 10, faults: 12, op: opUnicast, clients: 2,
		why: "per-frame cost dominates: wire pipeline, RouteCtx admission and flight; repair and batch fan-out are bypassed"},
	// One client: with two, the pair of 64-route batches settles into
	// either of two overlaps for a whole run, and the median latency
	// jumps between them. One batch already keeps both server cores busy
	// through the batch fan-out.
	{name: "q20-batch", dim: 20, faults: 2000, op: opBatch, clients: 1,
		why: "core dominates: Router.Unicast over a 1 MiB level table plus batch fan-out; set-up is the cold core.Compute"},
	{name: "q20-churn", dim: 20, faults: 0, op: opUnicast, clients: 2, churn: true,
		why: "control plane does the work: 480 flap events through apply queue, RepairLevels, Detach and publish beside reads"},
	{name: "q10-http", dim: 10, faults: 12, op: opHTTP, clients: 2,
		why: "the slserve HTTP/JSON layer dominates, which every wire workload bypasses"},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// Input sizes. The load comes from one process with at most two
// request goroutines and two connections.
const (
	pairRing    = 1 << 15 // pairs per client, cycled; a multiple of batchSize
	batchSize   = 64
	sampleEvery = 16 // every 16th answer per client is kept for the reference check
	setups      = 5  // server start-ups per run; setup_s is their median
)

// inputs are everything one run sends, generated from the seed alone:
// the same seed yields the same fault set, pair streams and events.
type inputs struct {
	w         workload
	cube      *topo.Cube
	set       *faults.Set   // the server's starting fault set; never mutated
	faultArgs []string      // set's faulty nodes in slserve -faults notation
	pairs     [][]wire.Pair // one ring per client
	// events is the churn schedule replayed during the window (q20-churn)
	// or the fail/recover pairs timed between its slices (static
	// workloads). Either way the fault set is the starting one again at
	// the end, and on a static workload after every group of
	// eventsPerPause.
	events []faults.ChurnEvent
}

func makeInputs(w workload, seed uint64) (*inputs, error) {
	cube, err := topo.NewCube(w.dim)
	if err != nil {
		return nil, err
	}
	rng := stats.NewRNG(seed)
	set := faults.NewSet(cube)
	if err := faults.InjectUniform(set, rng.Split(1), w.faults); err != nil {
		return nil, err
	}
	in := &inputs{w: w, cube: cube, set: set}
	for _, a := range set.FaultyNodes() {
		in.faultArgs = append(in.faultArgs, cube.Format(a))
	}
	for c := 0; c < w.clients; c++ {
		r := rng.Split(uint64(10 + c))
		ps := make([]wire.Pair, pairRing)
		for i := range ps {
			ps[i] = randomPair(r, set)
		}
		in.pairs = append(in.pairs, ps)
	}
	if w.churn {
		in.events, err = faults.ScenarioSchedule(cube, faults.ScenarioFlap, seed, faults.ScenarioOptions{Waves: 4})
		if err != nil {
			return nil, err
		}
		return in, nil
	}
	r := rng.Split(3)
	for len(in.events) < eventsPerPause*(slices+1) {
		v := topo.NodeID(r.Intn(cube.Nodes()))
		if set.NodeFaulty(v) {
			continue
		}
		in.events = append(in.events,
			faults.ChurnEvent{Kind: faults.DeltaFailNode, A: v},
			faults.ChurnEvent{Kind: faults.DeltaRecoverNode, A: v})
	}
	return in, nil
}

// randomPair draws a uniform pair of distinct nonfaulty nodes.
func randomPair(r *stats.RNG, set *faults.Set) wire.Pair {
	n := set.Topology().Nodes()
	for {
		s, d := topo.NodeID(r.Intn(n)), topo.NodeID(r.Intn(n))
		if s != d && !set.NodeFaulty(s) && !set.NodeFaulty(d) {
			return wire.Pair{Src: uint32(s), Dst: uint32(d)}
		}
	}
}
