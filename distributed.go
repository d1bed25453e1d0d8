package safecube

import (
	"repro/internal/simnet"
)

// Distributed is a running goroutine-per-node execution of the cube:
// every nonfaulty node is a goroutine, links are channels, and the GS
// and unicasting algorithms run by real message exchange. Use it to
// measure protocol cost (rounds, per-link messages) or to script
// fail-stop events between protocol phases. The engine is
// topology-generic, so it runs binary and generalized cubes alike.
//
// A Distributed instance must be Closed when done. Methods must be
// called from a single goroutine: the engine serializes protocol phases.
type Distributed struct {
	eng  *simnet.Engine
	cube *Cube
}

// Distributed starts the goroutine-per-node engine over the cube's
// current fault set. Later mutations of the Cube are not reflected;
// inject failures through KillNode instead. An instrumented cube's
// registry is inherited: GS phases record rounds and message counts,
// unicast phases record message totals. (Per-link GS message counts
// are a binary-cube metric: a GH dimension spans several links, so
// they are not recorded there.)
func (c *Cube) Distributed() *Distributed {
	eng := simnet.New(c.set)
	eng.SetObs(c.reg)
	return &Distributed{eng: eng, cube: c}
}

// RunGS executes the distributed GLOBAL_STATUS protocol for the
// Corollary bound of n-1 rounds, blocking until all nodes finish.
func (d *Distributed) RunGS() { d.eng.RunGS(0) }

// RunGSRounds executes exactly rounds rounds (for ablation of the
// iteration budget D).
func (d *Distributed) RunGSRounds(rounds int) { d.eng.RunGS(rounds) }

// RunGSAsync executes the asynchronous GS protocol (Section 2.2):
// nodes push level updates only when their value changes and the phase
// ends at quiescence. It reaches the same unique fixpoint as RunGS but
// sends no traffic at all for parts of the cube whose levels are
// already stable — the demand-driven saving the paper describes.
func (d *Distributed) RunGSAsync() { d.eng.RunGSAsync() }

// Updates returns the number of level changes during the last
// asynchronous phase (the async analogue of round counting).
func (d *Distributed) Updates() int { return d.eng.Updates() }

// Levels snapshots every node's public safety level (index = NodeID).
func (d *Distributed) Levels() []int { return d.eng.Levels() }

// OwnLevels snapshots every node's own-view level.
func (d *Distributed) OwnLevels() []int { return d.eng.OwnLevels() }

// StableRound returns the last round in which any node's level changed
// during the previous RunGS.
func (d *Distributed) StableRound() int { return d.eng.StableRound() }

// MessagesSent returns the total messages sent so far by all nodes.
func (d *Distributed) MessagesSent() int { return d.eng.MessagesSent() }

// route wraps one engine result in the facade's form.
func (d *Distributed) route(s, dst NodeID, res simnet.UnicastResult) *Route {
	return &Route{
		Source:    s,
		Dest:      dst,
		Hamming:   d.cube.Distance(s, dst),
		Outcome:   res.Outcome,
		Condition: res.Condition,
		Path:      append([]NodeID(nil), res.Path...),
		Err:       res.Err,
	}
}

// Unicast routes a message hop by hop through the node goroutines and
// blocks until it resolves. Run RunGS first.
func (d *Distributed) Unicast(s, dst NodeID) *Route {
	return d.route(s, dst, d.eng.Unicast(s, dst))
}

// KillNode fail-stops a node between phases. The paper's
// state-change-driven maintenance then calls for a fresh RunGS. The
// owning Cube observes the same failure: the shared fault set's
// generation advances, invalidating the Cube's cached levels.
func (d *Distributed) KillNode(a NodeID) error {
	return d.eng.KillNode(a)
}

// Close stops all node goroutines.
func (d *Distributed) Close() { d.eng.Close() }

// TrafficPair is one request of a concurrent unicast batch.
type TrafficPair struct {
	Src, Dst NodeID
}

// TrafficStats aggregates a concurrent batch run.
type TrafficStats struct {
	// Routes holds one result per request, in request order.
	Routes []*Route
	// Delivered counts requests that reached their destination.
	Delivered int
	// TotalHops sums hops over delivered requests.
	TotalHops int
	// MaxNodeTransit is the largest number of messages any single node
	// forwarded or delivered — the congestion hotspot.
	MaxNodeTransit int
}

// MaxBatch returns the largest number of concurrent unicasts the engine
// can route at once.
func (d *Distributed) MaxBatch() int { return d.eng.MaxBatch() }

// UnicastBatch routes all pairs concurrently through the node
// goroutines and blocks until every message resolves. Run RunGS first.
func (d *Distributed) UnicastBatch(pairs []TrafficPair) (*TrafficStats, error) {
	req := make([]simnet.Pair, len(pairs))
	for i, p := range pairs {
		req[i] = simnet.Pair{Src: p.Src, Dst: p.Dst}
	}
	st, err := d.eng.UnicastBatch(req)
	if err != nil {
		return nil, err
	}
	out := &TrafficStats{
		Routes:         make([]*Route, len(pairs)),
		Delivered:      st.Delivered,
		TotalHops:      st.TotalHops,
		MaxNodeTransit: st.MaxTransit,
	}
	for i, res := range st.Results {
		out.Routes[i] = d.route(pairs[i].Src, pairs[i].Dst, res.UnicastResult)
	}
	return out, nil
}

// Broadcast floods a message from src through the node goroutines
// using the level-ranked spanning-tree algorithm (see Cube.Broadcast
// for the sequential model and the guarantee discussion); in a GH the
// dimensions are ranked by observed level and each forward covers all
// m_i - 1 siblings of a dimension. Run RunGS first. Unlike
// Cube.Broadcast there is no unicast repair pass: the result reports
// exactly what the tree did.
func (d *Distributed) Broadcast(src NodeID) (*BroadcastResult, error) {
	run, err := d.eng.Broadcast(src)
	if err != nil {
		return nil, err
	}
	out := &BroadcastResult{
		Source:   run.Source,
		Depth:    make(map[NodeID]int, len(run.Depth)),
		Messages: run.Messages,
		Rounds:   run.Rounds,
	}
	for a, dep := range run.Depth {
		out.Depth[a] = dep
	}
	return out, nil
}
