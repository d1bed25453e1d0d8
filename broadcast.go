package safecube

import (
	"repro/internal/broadcast"
)

// BroadcastResult reports a safety-level broadcast (see Broadcast).
type BroadcastResult struct {
	Source NodeID
	// Depth maps every covered nonfaulty node to the hop depth at which
	// it received the message (source = 0).
	Depth map[NodeID]int
	// Messages is the number of point-to-point sends the broadcast
	// tree used; RepairMessages counts extra unicast hops.
	Messages       int
	RepairMessages int
	// Rounds is the broadcast latency: the maximum delivery depth.
	Rounds int
	// Missed lists reachable nonfaulty nodes the tree did not cover;
	// Repaired lists those subsequently delivered by unicast fallback.
	Missed, Repaired []NodeID
}

// Covered reports whether every reachable nonfaulty node received the
// message.
func (r *BroadcastResult) Covered() bool {
	return len(r.Missed) == len(r.Repaired)
}

// Broadcast floods a message from s to every reachable nonfaulty node
// using the safety-level-ranked spanning binomial tree (the application
// that originated safety levels — the paper's reference [9]). Subtrees
// are assigned largest-to-safest: when the source is safe the rank-i
// child has level at least i, and across the exhaustive and randomized
// test suites every safe source covered its whole component with the
// tree alone. Nodes the tree misses (possible from unsafe sources) are
// delivered by individual safety-level unicasts, so the combined
// operation covers every reachable node whenever unicast admission
// holds — always, below n faults.
//
// Broadcast runs on binary cubes only: the binomial tree is defined
// over Q_n, and it panics on a generalized cube. Distributed.Broadcast
// runs on both lattices.
func (c *Cube) Broadcast(s NodeID) *BroadcastResult {
	lv := c.ComputeLevels()
	res := broadcast.New(lv.as, true).Broadcast(s)
	out := &BroadcastResult{
		Source:         res.Source,
		Depth:          make(map[NodeID]int, len(res.Depth)),
		Messages:       res.Messages,
		RepairMessages: res.RepairMessages,
		Rounds:         res.Rounds,
		Missed:         append([]NodeID(nil), res.Missed...),
		Repaired:       append([]NodeID(nil), res.Repaired...),
	}
	for a, d := range res.Depth {
		out.Depth[a] = d
	}
	return out
}
