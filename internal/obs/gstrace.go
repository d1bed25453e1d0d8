package obs

import (
	"fmt"
	"strings"
)

// GSTrace records one run of the safety-level computation — the paper's
// GLOBAL_STATUS / EXTENDED_GLOBAL_STATUS — in whichever execution model
// produced it. The sequential model fills Rounds and Deltas; the
// distributed (simnet) models additionally fill the message-cost fields,
// turning the paper's "n-1 rounds of information exchange among
// neighboring nodes" into measured traffic.
type GSTrace struct {
	// Kind identifies the execution model: "sequential", "repair",
	// "simnet-sync" or "simnet-async".
	Kind string `json:"kind"`
	// Topo names the topology ("Q7", "GH(2x3x2)"); Summary falls back to
	// "Q<Dim>" when empty, so binary producers may leave it unset.
	Topo string `json:"topo,omitempty"`
	// Dim, NodeFaults and LinkFaults describe the instance.
	Dim        int `json:"dim"`
	NodeFaults int `json:"node_faults"`
	LinkFaults int `json:"link_faults"`
	// Rounds is the number of rounds until no level changed (the paper's
	// Corollary bound is n-1; Fig. 2 plots this statistic).
	Rounds int `json:"rounds"`
	// Deltas[r-1] is the number of nodes whose level changed in round r.
	Deltas []int `json:"deltas,omitempty"`
	// Updates counts level changes in the asynchronous protocol (its
	// analogue of round counting).
	Updates int `json:"updates,omitempty"`
	// Messages is the total number of level messages sent during the
	// phase (distributed models only).
	Messages int `json:"messages,omitempty"`
	// PerLink maps "addr-addr" to the number of level messages that
	// crossed that link in either direction. Populated only for small
	// cubes (<= 256 nodes) to keep snapshots bounded; MaxLinkMessages
	// and Messages are always filled.
	PerLink map[string]int `json:"per_link,omitempty"`
	// MaxLinkMessages is the busiest link's message count.
	MaxLinkMessages int `json:"max_link_messages,omitempty"`
	// DirtyNodes and Evals describe incremental repairs (Kind "repair"):
	// total dirty-frontier slots processed and NODE_STATUS evaluations
	// spent converging back to the fixpoint.
	DirtyNodes int `json:"dirty_nodes,omitempty"`
	Evals      int `json:"evals,omitempty"`
	// TableBytes is the logical size of the run's level tables
	// (core.Assignment.TableBytes: one byte per node per distinct
	// table). Snapshots share the tables' pages, so it is not what a
	// publish copies.
	TableBytes int `json:"table_bytes,omitempty"`
}

// Summary renders the trace as a one-paragraph transcript line.
func (t *GSTrace) Summary() string {
	if t == nil {
		return "no GS run recorded"
	}
	name := t.Topo
	if name == "" {
		name = fmt.Sprintf("Q%d", t.Dim)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s GS on %s (%d node faults, %d link faults): stabilized in %d rounds",
		t.Kind, name, t.NodeFaults, t.LinkFaults, t.Rounds)
	if len(t.Deltas) > 0 {
		fmt.Fprintf(&b, ", per-round level changes %v", t.Deltas)
	}
	if t.Updates > 0 {
		fmt.Fprintf(&b, ", %d async updates", t.Updates)
	}
	if t.DirtyNodes > 0 {
		fmt.Fprintf(&b, ", %d dirty nodes (%d evals)", t.DirtyNodes, t.Evals)
	}
	if t.Messages > 0 {
		fmt.Fprintf(&b, ", %d messages (busiest link %d)", t.Messages, t.MaxLinkMessages)
	}
	if t.TableBytes > 0 {
		fmt.Fprintf(&b, ", %d table bytes", t.TableBytes)
	}
	return b.String()
}
