package simnet

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/topo"
)

// msgKind discriminates inbox messages.
type msgKind int

const (
	msgLevel msgKind = iota
	msgUnicast
	msgBroadcast
)

// message is what travels over a link.
type message struct {
	kind msgKind

	// msgLevel fields. from is the dimension the message traveled along
	// and fromCoord the sender's coordinate in it, which together locate
	// the sender from the receiver's view (in a binary cube fromCoord is
	// simply the flipped bit).
	round     int
	from      int
	fromCoord int
	level     int

	// tag identifies a batch entry (0 = single-unicast mode).
	tag int

	// msgBroadcast: the dimensions the receiver's subtree spans (round
	// doubles as the delivery depth).
	dims []int

	// msgUnicast fields.
	dest   topo.NodeID
	path   topo.Path
	detour bool // the C3 spare hop was already taken
	// trace identifies the unicast attempt across every exchange it
	// causes: stamped at injection, copied onto every forwarded hop, and
	// reported back in UnicastResult.TraceID — the causal attribution
	// the flight recorder uses over the serving path.
	trace uint64
}

// ctrlKind discriminates engine-to-node commands.
type ctrlKind int

const (
	ctrlGS ctrlKind = iota
	ctrlGSAsync
	ctrlDie
)

type ctrlMsg struct {
	kind   ctrlKind
	rounds int
}

// UnicastResult reports a distributed unicast.
type UnicastResult struct {
	Outcome   core.Outcome
	Condition core.Condition
	Path      topo.Path
	// Hops is the number of link traversals of the unicast message.
	Hops int
	Err  error
	// TraceID is the engine-assigned ID of this unicast attempt
	// (1-based, monotonic per engine); every message exchanged on its
	// behalf carried it, so per-node logs are causally attributable.
	TraceID uint64
}

// node is the per-goroutine state. Everything here is owned by the
// node's goroutine during a phase; the engine touches it only between
// phases (after the phase WaitGroup settles).
type node struct {
	id    topo.NodeID
	eng   *Engine
	inbox chan message
	ctrl  chan ctrlMsg

	// coord[i] is this node's coordinate in dimension i; line[i][v] is
	// the node sharing all coordinates but the i-th, which is v (so
	// line[i][coord[i]] is the node itself). Built once at start-up,
	// read-only afterwards.
	coord []int
	line  [][]topo.NodeID

	level  int // own safety level (own view for N2 nodes)
	public int // level exposed to neighbors (0 for N2 nodes)
	// nbrLevel[i][v] is the last public level received from line[i][v]
	// (the own-coordinate slot is unused).
	nbrLevel [][]int
	reduced  []int // scratch: per-dimension sibling minima (Definition 4)

	sent       int // messages sent, all kinds
	lastChange int // last GS round in which level changed
	updates    int // async-mode level changes
	transited  int // unicast messages this node forwarded or delivered
	bcastDepth int // delivery depth of the current broadcast (-1 = none)
	bcastSent  int // broadcast sends in the current phase

	// Per-phase accounting for the observability layer. The engine zeroes
	// these between phases; the node increments them alongside sent.
	phaseSent  int   // messages sent this phase
	sentPerDim []int // per-dimension sends this phase (per-link cost)
	changed    []int // sync-GS rounds in which this node's level changed

	// stash holds early messages that arrive while the node is inside a
	// GS round loop (e.g. next-round levels).
	stash []message
}

// Engine owns a distributed hypercube instance.
type Engine struct {
	t   topo.Topology
	set *faults.Set

	nodes []*node // nil for faulty nodes
	wg    sync.WaitGroup

	// startwg and async coordinate the asynchronous GS phase; bcast
	// coordinates a broadcast phase.
	startwg sync.WaitGroup
	async   *asyncState
	bcast   *asyncState

	results chan UnicastResult
	// batchResults, when non-nil, receives tagged batch outcomes.
	batchResults chan taggedResult

	// gsRounds is the D used in the last RunGS.
	gsRounds int
	closed   bool

	// traceSeq allocates unicast trace IDs (1-based).
	traceSeq atomic.Uint64

	// obs, when non-nil, receives per-phase protocol-cost metrics and GS
	// traces. Set it between phases with SetObs.
	obs *obs.Registry
}

// SetObs attaches a metrics registry (nil detaches). Call it between
// phases only; a nil registry keeps all accounting overhead to plain
// integer increments that never cross a cache line contention point.
func (e *Engine) SetObs(r *obs.Registry) { e.obs = r }

// inboxCapacity sizes a node inbox for the worst case across both GS
// modes: the synchronous protocol needs at most two rounds of skew from
// each of the deg sending peers plus batch slack; the asynchronous
// protocol can have every peer push its whole descending level ladder
// (n levels plus the initial) before this node processes anything. For
// a binary cube (deg = n) this reduces to the historical
// (n+3)*(n+1)+2.
func inboxCapacity(t topo.Topology) int {
	dim, deg := t.Dim(), t.Degree()
	syncNeed := (deg+3)*(dim+1) + 2
	asyncNeed := deg*(dim+4) + 2
	if asyncNeed > syncNeed {
		return asyncNeed
	}
	return syncNeed
}

// New builds an engine over the given fault set and starts one goroutine
// per nonfaulty node. Callers must Close the engine to stop them.
func New(set *faults.Set) *Engine {
	t := set.Topology()
	e := &Engine{
		t:       t,
		set:     set,
		nodes:   make([]*node, t.Nodes()),
		results: make(chan UnicastResult, 4),
	}
	for a := 0; a < t.Nodes(); a++ {
		id := topo.NodeID(a)
		if set.NodeFaulty(id) {
			continue
		}
		e.nodes[a] = e.buildNode(id)
	}
	for _, n := range e.nodes {
		if n != nil {
			go n.run()
		}
	}
	return e
}

// buildNode constructs the goroutine state of one live node (its
// coordinate and sibling tables, inbox, and level registers). Used at
// start-up for every nonfaulty node and by ReviveNode for nodes
// rejoining after recovery; the caller starts the goroutine.
func (e *Engine) buildNode(id topo.NodeID) *node {
	t := e.t
	n := &node{
		id:         id,
		eng:        e,
		inbox:      make(chan message, inboxCapacity(t)),
		ctrl:       make(chan ctrlMsg, 1),
		coord:      make([]int, t.Dim()),
		line:       make([][]topo.NodeID, t.Dim()),
		level:      t.Dim(),
		public:     t.Dim(),
		nbrLevel:   make([][]int, t.Dim()),
		reduced:    make([]int, t.Dim()),
		sentPerDim: make([]int, t.Dim()),
	}
	var sibs []topo.NodeID
	for i := 0; i < t.Dim(); i++ {
		n.coord[i] = t.Coord(id, i)
		n.line[i] = make([]topo.NodeID, t.Radix(i))
		n.line[i][n.coord[i]] = id
		sibs = t.Siblings(id, i, sibs[:0])
		for _, b := range sibs {
			n.line[i][t.Coord(b, i)] = b
		}
		n.nbrLevel[i] = make([]int, t.Radix(i))
	}
	return n
}

// Topology returns the topology the engine runs on.
func (e *Engine) Topology() topo.Topology { return e.t }

// Cube returns the binary-hypercube topology; it panics when the engine
// runs on a generalized hypercube (use Topology then).
func (e *Engine) Cube() *topo.Cube {
	c, ok := e.t.(*topo.Cube)
	if !ok {
		panic("simnet: engine is not over a binary cube")
	}
	return c
}

// MessagesSent returns the total messages sent by all live nodes so far.
// Call it only between phases.
func (e *Engine) MessagesSent() int {
	total := 0
	for _, n := range e.nodes {
		if n != nil {
			total += n.sent
		}
	}
	return total
}

// StableRound returns the last GS round in which any node's level
// changed — the distributed analogue of core.Assignment.Rounds. Call it
// only after RunGS.
func (e *Engine) StableRound() int {
	r := 0
	for _, n := range e.nodes {
		if n != nil && n.lastChange > r {
			r = n.lastChange
		}
	}
	return r
}

// Levels snapshots the public level of every node (0 for faulty nodes).
// Call it only between phases.
func (e *Engine) Levels() []int {
	out := make([]int, e.t.Nodes())
	for a, n := range e.nodes {
		if n != nil {
			out[a] = n.public
		}
	}
	return out
}

// OwnLevels snapshots each node's own-view level (differs from Levels
// only for N2 nodes). Call it only between phases.
func (e *Engine) OwnLevels() []int {
	out := make([]int, e.t.Nodes())
	for a, n := range e.nodes {
		if n != nil {
			out[a] = n.level
		}
	}
	return out
}

// resetPhaseCounters zeroes the per-phase observability accounting.
// Engine-side only, between phases (the ctrl-channel send that starts
// the next phase establishes the happens-before edge).
func (e *Engine) resetPhaseCounters() {
	for _, n := range e.nodes {
		if n == nil {
			continue
		}
		n.phaseSent = 0
		for i := range n.sentPerDim {
			n.sentPerDim[i] = 0
		}
		n.changed = n.changed[:0]
	}
}

// countSend is the accounting companion of every message send.
func (n *node) countSend(dim int) {
	n.sent++
	n.phaseSent++
	n.sentPerDim[dim]++
}

// phaseMessages sums the messages sent during the current phase.
func (e *Engine) phaseMessages() int {
	total := 0
	for _, n := range e.nodes {
		if n != nil {
			total += n.phaseSent
		}
	}
	return total
}

// recordGS publishes the cost of the GS phase that just ended: a GSTrace
// (rounds, per-round deltas, per-link message counts) plus the aggregate
// counters. No-op without a registry.
func (e *Engine) recordGS(kind string, rounds, updates int) {
	if e.obs == nil {
		return
	}
	t := &obs.GSTrace{
		Kind:       kind,
		Topo:       fmt.Sprint(e.t),
		Dim:        e.t.Dim(),
		NodeFaults: e.set.NodeFaults(),
		LinkFaults: e.set.LinkFaults(),
		Rounds:     rounds,
		Updates:    updates,
		Messages:   e.phaseMessages(),
	}
	for _, n := range e.nodes {
		if n == nil {
			continue
		}
		for _, r := range n.changed {
			for len(t.Deltas) < r {
				t.Deltas = append(t.Deltas, 0)
			}
			t.Deltas[r-1]++
		}
	}
	// Per-link counts need a one-neighbor-per-dimension topology (sends
	// are accounted per dimension, and a GH dimension spans several
	// links), so they are reported for binary cubes only. The full map
	// is kept only for small cubes; the busiest-link maximum is always
	// computed.
	if bin, ok := e.t.(*topo.Cube); ok {
		small := bin.Nodes() <= 256
		if small {
			t.PerLink = make(map[string]int)
		}
		for a, n := range e.nodes {
			if n == nil {
				continue
			}
			id := topo.NodeID(a)
			for i, cnt := range n.sentPerDim {
				b := bin.Neighbor(id, i)
				if b < id {
					continue // count each undirected link once, from its low end
				}
				total := cnt
				if peer := e.nodes[b]; peer != nil {
					total += peer.sentPerDim[i]
				}
				if total == 0 {
					continue
				}
				if total > t.MaxLinkMessages {
					t.MaxLinkMessages = total
				}
				if small {
					t.PerLink[bin.Format(id)+"-"+bin.Format(b)] = total
				}
			}
		}
	}
	e.obs.RecordGS(t)
	e.obs.Counter("simnet_gs_runs_total").Inc()
	e.obs.Counter("simnet_gs_messages_total").Add(int64(t.Messages))
	e.obs.Gauge("simnet_gs_last_rounds").Set(int64(rounds))
	e.obs.Gauge("simnet_gs_last_max_link_messages").Set(int64(t.MaxLinkMessages))
	e.obs.Histogram("simnet_gs_rounds").Observe(int64(rounds))
	if updates > 0 {
		e.obs.Counter("simnet_gs_updates_total").Add(int64(updates))
	}
}

// RunGS executes the distributed GLOBAL_STATUS algorithm for rounds
// rounds (0 means the Corollary bound n-1). It blocks until every live
// node has finished the phase.
func (e *Engine) RunGS(rounds int) {
	if rounds <= 0 {
		rounds = e.t.Dim() - 1
		if rounds < 1 {
			rounds = 1
		}
	}
	e.gsRounds = rounds
	e.resetPhaseCounters()
	for _, n := range e.nodes {
		if n == nil {
			continue
		}
		e.wg.Add(1)
		n.ctrl <- ctrlMsg{kind: ctrlGS, rounds: rounds}
	}
	e.wg.Wait()
	e.recordGS("simnet-sync", e.StableRound(), 0)
}

// KillNode marks a node fail-stop faulty between phases, stopping its
// goroutine. Neighbors observe the failure through the shared fault
// oracle (the paper's assumption 2: fault detection exists). Following
// the state-change-driven strategy, callers should RunGS again.
func (e *Engine) KillNode(a topo.NodeID) error {
	if !e.t.Contains(a) {
		return fmt.Errorf("simnet: node %d outside cube", a)
	}
	n := e.nodes[a]
	if n == nil {
		return fmt.Errorf("simnet: node %d already dead", a)
	}
	if err := e.set.FailNode(a); err != nil {
		return err
	}
	e.wg.Add(1)
	n.ctrl <- ctrlMsg{kind: ctrlDie}
	e.wg.Wait()
	e.nodes[a] = nil
	return nil
}

// Unicast routes a message from s to d through the live node goroutines
// and blocks until the attempt resolves. Both endpoints must be
// nonfaulty. Run a GS phase first so levels are in place.
func (e *Engine) Unicast(s, d topo.NodeID) UnicastResult {
	if !e.t.Contains(s) || !e.t.Contains(d) {
		return UnicastResult{Outcome: core.Failure, Err: fmt.Errorf("simnet: node outside cube")}
	}
	src := e.nodes[s]
	if src == nil {
		return UnicastResult{Outcome: core.Failure, Err: fmt.Errorf("simnet: source %s is faulty", e.t.Format(s))}
	}
	if e.nodes[d] == nil {
		return UnicastResult{Outcome: core.Failure, Err: fmt.Errorf("simnet: destination %s is faulty", e.t.Format(d))}
	}
	e.resetPhaseCounters()
	src.inbox <- message{
		kind:  msgUnicast,
		dest:  d,
		path:  topo.Path{s},
		trace: e.nextTrace(),
	}
	res := <-e.results
	if e.obs != nil {
		e.obs.Counter("simnet_unicasts_total").Inc()
		e.obs.Counter("simnet_unicast_messages_total").Add(int64(e.phaseMessages()))
		if res.Outcome != core.Failure {
			e.obs.Counter("simnet_delivered_total").Inc()
		}
	}
	return res
}

// nextTrace allocates the ID the next injected unicast travels under.
func (e *Engine) nextTrace() uint64 { return e.traceSeq.Add(1) }

// Close stops every live goroutine. The engine is unusable afterwards.
func (e *Engine) Close() {
	if e.closed {
		return
	}
	e.closed = true
	for a, n := range e.nodes {
		if n == nil {
			continue
		}
		e.wg.Add(1)
		n.ctrl <- ctrlMsg{kind: ctrlDie}
		e.nodes[a] = nil
	}
	e.wg.Wait()
}

// ---------------------------------------------------------------------
// Node goroutine.
// ---------------------------------------------------------------------

func (n *node) run() {
	for {
		select {
		case cmd := <-n.ctrl:
			switch cmd.kind {
			case ctrlGS:
				n.runGS(cmd.rounds)
				n.eng.wg.Done()
			case ctrlGSAsync:
				n.runGSAsync(n.eng.async)
				n.eng.wg.Done()
			case ctrlDie:
				n.eng.wg.Done()
				return
			}
		case m := <-n.inbox:
			switch m.kind {
			case msgUnicast:
				n.forward(m)
			case msgBroadcast:
				n.handleBroadcast(m, n.eng.bcast)
			default:
				// A neighbor that received its ctrlGS first may already
				// be sending round-1 levels before this node has seen
				// its own ctrlGS. Stash the message; runGS drains the
				// stash first.
				n.stash = append(n.stash, m)
			}
		}
	}
}

// gsPeers counts the siblings that will send GS levels to this node:
// healthy link, nonfaulty far end, far end not in N2. inN2 reports
// whether this node itself has an adjacent faulty link.
func (n *node) gsPeers() (peers int, inN2 bool) {
	e := n.eng
	for i := range n.line {
		for v, b := range n.line[i] {
			if v == n.coord[i] {
				continue
			}
			if e.set.LinkFaulty(n.id, b) {
				inN2 = true
				continue
			}
			if e.set.NodeFaulty(b) {
				continue
			}
			if len(e.set.AdjacentFaultyLinks(b)) > 0 {
				// N2 neighbors broadcast nothing; their public level is 0.
				continue
			}
			peers++
		}
	}
	return peers, inN2
}

// levelNow evaluates this node's safety level from the received sibling
// levels: each dimension reduces to its sibling minimum (Definition 4 —
// the identity reduction in a binary cube) and Definition 1 runs on the
// n reduced values.
func (n *node) levelNow(scratch []int) int {
	for i := range n.nbrLevel {
		min := -1
		for v, lv := range n.nbrLevel[i] {
			if v == n.coord[i] {
				continue
			}
			if min < 0 || lv < min {
				min = lv
			}
		}
		n.reduced[i] = min
	}
	return core.LevelFromNeighbors(n.reduced, scratch)
}

// initNbrLevels (re-)initializes the received-level table the way the
// algorithm's first exchange would observe it: 0 across faulty links,
// for faulty siblings, and for (publicly silent) N2 siblings; n
// otherwise.
func (n *node) initNbrLevels() {
	e, dim := n.eng, n.eng.t.Dim()
	for i := range n.nbrLevel {
		for v, b := range n.line[i] {
			if v == n.coord[i] {
				n.nbrLevel[i][v] = dim // unused slot
				continue
			}
			if e.set.LinkFaulty(n.id, b) || e.set.NodeFaulty(b) || len(e.set.AdjacentFaultyLinks(b)) > 0 {
				n.nbrLevel[i][v] = 0
			} else {
				n.nbrLevel[i][v] = dim
			}
		}
	}
}

// runGS executes the node's part of GLOBAL_STATUS / EXTENDED_GLOBAL_STATUS.
func (n *node) runGS(rounds int) {
	e, dim := n.eng, n.eng.t.Dim()
	peers, inN2 := n.gsPeers()

	// (Re-)initialize: nonfaulty nodes restart from level n (the
	// algorithm's initialization); N2 nodes declare themselves 0.
	n.level, n.public = dim, dim
	if inN2 {
		n.level, n.public = 0, 0
	}
	n.lastChange = 0
	n.updates = 0
	n.initNbrLevels()

	scratch := make([]int, dim+1) // LevelFromNeighbors counting buckets
	for r := 1; r <= rounds; r++ {
		// Send current public level to peers over healthy links. N2
		// nodes stay silent (they already declared level 0), but N1
		// nodes still send to nonfaulty neighbors in N2 so those can
		// run NODE_STATUS once in the last round (EGS).
		if !inN2 {
			for i := range n.line {
				for v, b := range n.line[i] {
					if v == n.coord[i] || e.set.LinkFaulty(n.id, b) || e.set.NodeFaulty(b) {
						continue
					}
					peer := e.nodes[b]
					if peer == nil {
						continue
					}
					peer.inbox <- message{kind: msgLevel, round: r, from: i, fromCoord: n.coord[i], level: n.public}
					n.countSend(i)
				}
			}
		}
		// Receive one level per sending peer for this round. Peers are
		// exactly the N1 siblings over healthy links. Matching
		// messages may already sit in the stash (stored while this
		// node had not yet entered the phase, or from one round of
		// skew); scan it once, then block on the inbox — messages from
		// the next round go back to the stash.
		got := 0
		kept := n.stash[:0]
		for _, m := range n.stash {
			if m.kind == msgLevel && m.round == r {
				n.nbrLevel[m.from][m.fromCoord] = m.level
				got++
			} else {
				kept = append(kept, m)
			}
		}
		n.stash = kept
		for got < peers {
			m := <-n.inbox
			if m.kind != msgLevel || m.round != r {
				n.stash = append(n.stash, m)
				continue
			}
			n.nbrLevel[m.from][m.fromCoord] = m.level
			got++
		}
		// N2 nodes run NODE_STATUS once, in the last round, treating
		// the far ends of their faulty links as faulty (level 0); N1
		// nodes update every round.
		if inN2 {
			if r == rounds {
				n.level = n.levelNow(scratch)
				n.lastChange = r
				n.changed = append(n.changed, r)
			}
			continue
		}
		nl := n.levelNow(scratch)
		if nl != n.level {
			n.level = nl
			n.public = nl
			n.lastChange = r
			n.changed = append(n.changed, r)
		}
	}
}

// forward implements the unicasting algorithms of Section 3.2 with only
// local knowledge: the node's own level, its neighbors' public levels
// (collected during GS), and the fault status of its neighbors.
func (n *node) forward(m message) {
	n.transited++
	if m.dest == n.id {
		// UNICASTING_AT_INTERMEDIATE_NODE: N = 0 -> this is the
		// destination.
		n.report(m, UnicastResult{
			Outcome:   classify(m),
			Condition: condOf(m),
			Path:      m.path,
			Hops:      m.path.Len(),
		})
		return
	}
	if len(m.path) == 1 && m.path[0] == n.id {
		n.sourceForward(m)
		return
	}
	n.intermediateForward(m)
}

// classify recovers the outcome class from the traveled path.
func classify(m message) core.Outcome {
	if m.detour {
		return core.Suboptimal
	}
	return core.Optimal
}

func condOf(m message) core.Condition {
	if m.detour {
		return core.CondC3
	}
	// C1 and C2 are indistinguishable from the trace; the engine-level
	// tests recover the precise condition from core.Router. Report C1
	// as the representative optimal condition.
	return core.CondC1
}

// sourceForward implements UNICASTING_AT_SOURCE_NODE.
func (n *node) sourceForward(m message) {
	e, t := n.eng, n.eng.t
	h := t.Distance(n.id, m.dest)
	// C1: own level covers the distance. (Section 4.1: the far end of
	// an adjacent faulty link is excluded from the own-level guarantee.)
	deadLinkDest := h == 1 && e.set.LinkFaulty(n.id, m.dest)
	if !deadLinkDest {
		if n.level >= h {
			n.sendPreferred(m, false)
			return
		}
		// C2: a preferred neighbor with level >= H-1.
		for i := 0; i < t.Dim(); i++ {
			if dc := t.Coord(m.dest, i); dc != n.coord[i] && n.observedLevelAt(i, dc) >= h-1 {
				n.sendPreferred(m, false)
				return
			}
		}
	}
	// C3: a spare neighbor with level >= H+1 (strict improvement keeps
	// the lowest-dimension, lowest-coordinate winner, matching the
	// sequential router's tie-break).
	best, dim, bestCoord := -1, -1, -1
	for i := 0; i < t.Dim(); i++ {
		if t.Coord(m.dest, i) != n.coord[i] {
			continue
		}
		for v := range n.line[i] {
			if v == n.coord[i] {
				continue
			}
			if lv := n.observedLevelAt(i, v); lv >= h+1 && lv > best {
				best, dim, bestCoord = lv, i, v
			}
		}
	}
	if dim >= 0 {
		n.send(m, dim, n.line[dim][bestCoord], true)
		return
	}
	n.report(m, UnicastResult{
		Outcome:   core.Failure,
		Condition: core.CondNone,
		Path:      m.path,
	})
}

// observedLevelAt is the level of the sibling with coordinate v along
// dim as this node observes it: 0 across a faulty link or for a faulty
// node, else the last level received in GS.
func (n *node) observedLevelAt(dim, v int) int {
	e := n.eng
	b := n.line[dim][v]
	if e.set.LinkFaulty(n.id, b) || e.set.NodeFaulty(b) {
		return 0
	}
	return n.nbrLevel[dim][v]
}

// observedDimLevel reduces dimension dim to its observed sibling
// minimum — the per-dimension value of Definition 4.
func (n *node) observedDimLevel(dim int) int {
	min := -1
	for v := range n.line[dim] {
		if v == n.coord[dim] {
			continue
		}
		if lv := n.observedLevelAt(dim, v); min < 0 || lv < min {
			min = lv
		}
	}
	return min
}

// intermediateForward implements UNICASTING_AT_INTERMEDIATE_NODE.
func (n *node) intermediateForward(m message) {
	n.sendPreferred(m, false)
}

// sendPreferred forwards to the preferred neighbor with the highest
// observed level (LowestDim tie-break), delivering the final hop
// unconditionally over a healthy link. In a generalized hypercube the
// preferred candidate along a dimension is the sibling already holding
// the destination's coordinate (Section 4.2: one hop crosses the whole
// dimension).
func (n *node) sendPreferred(m message, detour bool) {
	e, t := n.eng, n.eng.t
	if t.Distance(n.id, m.dest) == 1 {
		if !e.set.LinkFaulty(n.id, m.dest) && e.nodes[m.dest] != nil {
			n.send(m, t.LinkDim(n.id, m.dest), m.dest, detour)
			return
		}
		n.report(m, UnicastResult{
			Outcome: core.Failure,
			Path:    m.path,
			Err:     fmt.Errorf("simnet: %s cannot deliver final hop", t.Format(n.id)),
		})
		return
	}
	best, dim, bestNode := -1, -1, topo.NodeID(0)
	for i := 0; i < t.Dim(); i++ {
		dc := t.Coord(m.dest, i)
		if dc == n.coord[i] {
			continue
		}
		b := n.line[i][dc]
		if e.set.NodeFaulty(b) || e.set.LinkFaulty(n.id, b) {
			continue
		}
		if lv := n.nbrLevel[i][dc]; lv > best {
			best, dim, bestNode = lv, i, b
		}
	}
	if dim < 0 {
		n.report(m, UnicastResult{
			Outcome: core.Failure,
			Path:    m.path,
			Err:     fmt.Errorf("simnet: %s has no usable preferred neighbor", t.Format(n.id)),
		})
		return
	}
	n.send(m, dim, bestNode, detour)
}

// send moves the unicast one hop along dim to sibling b.
func (n *node) send(m message, dim int, b topo.NodeID, markDetour bool) {
	e := n.eng
	next := message{
		kind:   msgUnicast,
		tag:    m.tag,
		dest:   m.dest,
		path:   append(append(topo.Path{}, m.path...), b),
		detour: m.detour || markDetour,
		trace:  m.trace,
	}
	peer := e.nodes[b]
	if peer == nil {
		// Final hop into a faulty destination cannot happen here: the
		// engine rejects faulty destinations up front.
		n.report(m, UnicastResult{
			Outcome: core.Failure,
			Path:    m.path,
			Err:     fmt.Errorf("simnet: hop into dead node %s", e.t.Format(b)),
		})
		return
	}
	n.countSend(dim)
	peer.inbox <- next
}

// report routes a unicast outcome to the right collector: the batch
// channel for tagged messages, the single-unicast channel otherwise.
func (n *node) report(m message, res UnicastResult) {
	res.TraceID = m.trace
	if m.tag != 0 {
		n.eng.batchResults <- taggedResult{tag: m.tag, res: res}
		return
	}
	n.eng.results <- res
}
