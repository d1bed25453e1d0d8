package faults

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/bitset"
	"repro/internal/topo"
)

// Link is an undirected edge identified by its two endpoints.
// Normalize before using a Link as a map key.
type Link struct {
	A, B topo.NodeID
}

// Normalize returns the link with endpoints ordered A < B so that the
// same physical edge always compares equal.
func (l Link) Normalize() Link {
	if l.A > l.B {
		l.A, l.B = l.B, l.A
	}
	return l
}

// Dimension returns the dimension the link crosses in a binary cube, or
// -1 if the two endpoints are not hypercube-adjacent. For non-binary
// topologies use Topology.LinkDim instead.
func (l Link) Dimension() int {
	x := uint32(l.A ^ l.B)
	if x == 0 || x&(x-1) != 0 {
		return -1
	}
	d := 0
	for x > 1 {
		x >>= 1
		d++
	}
	return d
}

// DeltaKind discriminates the four elementary fault-state mutations.
type DeltaKind uint8

// Elementary mutations, in the order the paper's dynamic fault model
// introduces them (fail-stop faults, then the Section 2.2 recovery and
// the Section 4.1 link faults).
const (
	DeltaFailNode DeltaKind = iota
	DeltaRecoverNode
	DeltaFailLink
	DeltaRecoverLink
)

// String names the mutation kind.
func (k DeltaKind) String() string {
	switch k {
	case DeltaFailNode:
		return "fail-node"
	case DeltaRecoverNode:
		return "recover-node"
	case DeltaFailLink:
		return "fail-link"
	case DeltaRecoverLink:
		return "recover-link"
	}
	return "unknown"
}

// Delta records one effective mutation of a fault set: the generation
// the set reached by applying it, the kind, and the touched node (A) or
// link endpoints (A, B — normalized A < B). The journal of recent
// deltas is what lets the incremental GS repair seed its dirty frontier
// instead of re-sweeping all 2^n nodes.
type Delta struct {
	Gen  uint64
	Kind DeltaKind
	A, B topo.NodeID
}

// journalCap bounds the retained delta journal. A consumer that falls
// more than journalCap effective mutations behind simply recomputes
// cold; the cap only trades repairability for memory.
const journalCap = 4096

// Set records the faulty nodes and links of one topology instance.
// The zero value is not usable; construct with NewSet.
//
// Storage is flat: faulty nodes live in a word-addressed bitset keyed
// by dense node index, faulty links in a slice kept sorted by
// normalized endpoints. Both clone with a memcpy, and the sorted link
// slice is all a detached level snapshot copies of the set
// (core.Assignment.Detach; HasLink searches such a copy).
type Set struct {
	t         topo.Topology
	node      bitset.Set
	nodeCount int
	// links holds the normalized faulty links sorted by (A, B); lookups
	// binary-search it and FaultyLinks returns a copy without sorting.
	links []Link
	// gen increments on every effective mutation; caches keyed on it
	// (e.g. the Cube level cache) detect staleness without callers
	// having to flag every mutation path by hand.
	gen uint64
	// journal holds the most recent effective mutations, one entry per
	// generation increment, oldest first. Bounded by journalCap.
	journal []Delta
}

// Generation returns the mutation generation: it changes exactly when
// the fault set changes. Two equal generations of the same Set imply an
// identical fault state.
func (s *Set) Generation() uint64 { return s.gen }

// record advances the generation and journals the mutation. Every
// effective mutation path funnels through here so the journal invariant
// (one consecutive entry per generation) holds by construction.
func (s *Set) record(kind DeltaKind, a, b topo.NodeID) {
	s.gen++
	if len(s.journal) >= journalCap {
		// Drop the older half in one copy; amortized O(1) per mutation.
		n := copy(s.journal, s.journal[len(s.journal)-journalCap/2:])
		s.journal = s.journal[:n]
	}
	s.journal = append(s.journal, Delta{Gen: s.gen, Kind: kind, A: a, B: b})
}

// Since returns the deltas that moved the set from generation gen to its
// current state, oldest first. ok is false when the journal no longer
// reaches back to gen (too many mutations since) — the caller must then
// treat the whole set as changed and recompute from scratch.
func (s *Set) Since(gen uint64) (deltas []Delta, ok bool) {
	if gen == s.gen {
		return nil, true
	}
	if gen > s.gen || len(s.journal) == 0 || s.journal[0].Gen > gen+1 {
		return nil, false
	}
	// Entries are consecutive, so the first wanted entry sits at a fixed
	// offset from the journal tail.
	idx := len(s.journal) - int(s.gen-gen)
	if idx < 0 {
		return nil, false
	}
	return s.journal[idx:], true
}

// NewSet returns an empty fault set over topology t.
func NewSet(t topo.Topology) *Set {
	return &Set{
		t:    t,
		node: bitset.New(t.Nodes()),
	}
}

// Clone returns an independent deep copy.
func (s *Set) Clone() *Set {
	cp := &Set{
		t:         s.t,
		node:      s.node.Clone(),
		nodeCount: s.nodeCount,
		gen:       s.gen,
		journal:   append([]Delta(nil), s.journal...),
	}
	if len(s.links) > 0 {
		cp.links = append([]Link(nil), s.links...)
	}
	return cp
}

// Frozen returns a journal-free set over t at generation gen whose
// faulty nodes are the members of nodes, which the set takes over, and
// whose faulty links are a copy of links, normalized and sorted as
// FaultyLinks returns them. It reports the same faults and generation
// as the set they were taken from, but Since on it succeeds only for
// the current generation, so it cannot replay history for a repair.
// core.Assignment.Faults rebuilds a detached snapshot's fault view
// with it.
func Frozen(t topo.Topology, gen uint64, nodes bitset.Set, links []Link) *Set {
	cp := &Set{t: t, node: nodes, nodeCount: nodes.Count(), gen: gen}
	if len(links) > 0 {
		cp.links = append([]Link(nil), links...)
	}
	return cp
}

// linkIndex binary-searches a sorted link slice for normalized link l,
// returning its position (or insertion point) and whether it is
// present.
func linkIndex(links []Link, l Link) (int, bool) {
	i := sort.Search(len(links), func(i int) bool {
		e := links[i]
		return e.A > l.A || (e.A == l.A && e.B >= l.B)
	})
	return i, i < len(links) && links[i] == l
}

// Topology returns the topology the set is defined over.
func (s *Set) Topology() topo.Topology { return s.t }

// Cube returns the topology as a binary cube; it panics if the set was
// built over a non-binary topology. Binary-only consumers (the subcube
// injectors, the baseline routers) use this accessor.
func (s *Set) Cube() *topo.Cube {
	c, ok := s.t.(*topo.Cube)
	if !ok {
		panic("faults: set is not over a binary cube")
	}
	return c
}

// FailNode marks node a faulty. Failing an already-faulty node is a no-op.
func (s *Set) FailNode(a topo.NodeID) error {
	if !s.t.Contains(a) {
		return fmt.Errorf("faults: node %d outside cube", a)
	}
	if !s.node.Test(int(a)) {
		s.node.Add(int(a))
		s.nodeCount++
		s.record(DeltaFailNode, a, a)
	}
	return nil
}

// RecoverNode marks node a nonfaulty again (used by the update-strategy
// ablations; the paper discusses recovery under demand-driven GS).
//
// Recovery resets the node's incident links to healthy as well: a
// repaired node rejoins the cube with a fresh set of working links, so
// any link fault recorded while it was down is dropped (and journaled as
// its own recovery). Without this, a later FailLink on an incident link
// would be silently absorbed by the stale record and the link would
// appear to have been faulty the whole time. Link faults that should
// survive a node repair must be re-asserted with FailLink.
//
// RecoverNode is a composite mutation: it journals one delta (and bumps
// the generation) per dropped link plus one for the node itself. A Set
// is not safe for concurrent use, and a reader racing RecoverNode could
// observe a generation from the middle of the composite — levels where
// the node is still down but its link faults are already gone. Callers
// that serve readers concurrently must serialize mutations and publish
// immutable detached views instead of sharing the live set; that is
// exactly what internal/serve does (see the snapshot/swap argument in
// DESIGN.md §9 and TestServeChurn).
func (s *Set) RecoverNode(a topo.NodeID) error {
	if !s.t.Contains(a) {
		return fmt.Errorf("faults: node %d outside cube", a)
	}
	if !s.node.Test(int(a)) {
		return nil
	}
	if len(s.links) > 0 {
		var sibs []topo.NodeID
		for i := 0; i < s.t.Dim(); i++ {
			sibs = s.t.Siblings(a, i, sibs[:0])
			for _, b := range sibs {
				l := Link{a, b}.Normalize()
				if idx, ok := linkIndex(s.links, l); ok {
					s.links = append(s.links[:idx], s.links[idx+1:]...)
					s.record(DeltaRecoverLink, l.A, l.B)
				}
			}
		}
	}
	s.node.Remove(int(a))
	s.nodeCount--
	s.record(DeltaRecoverNode, a, a)
	return nil
}

// FailNodes marks each listed node faulty.
func (s *Set) FailNodes(nodes ...topo.NodeID) error {
	for _, a := range nodes {
		if err := s.FailNode(a); err != nil {
			return err
		}
	}
	return nil
}

// FailLink marks the undirected link between a and b faulty.
// It returns an error if a and b are not adjacent.
func (s *Set) FailLink(a, b topo.NodeID) error {
	if !s.t.Contains(a) || !s.t.Contains(b) {
		return fmt.Errorf("faults: link endpoint outside cube")
	}
	if !s.t.Adjacent(a, b) {
		return fmt.Errorf("faults: %d and %d are not adjacent", a, b)
	}
	l := Link{a, b}.Normalize()
	if idx, ok := linkIndex(s.links, l); !ok {
		s.links = append(s.links, Link{})
		copy(s.links[idx+1:], s.links[idx:])
		s.links[idx] = l
		s.record(DeltaFailLink, l.A, l.B)
	}
	return nil
}

// RecoverLink marks the undirected link between a and b healthy again.
func (s *Set) RecoverLink(a, b topo.NodeID) error {
	if !s.t.Contains(a) || !s.t.Contains(b) {
		return fmt.Errorf("faults: link endpoint outside cube")
	}
	l := Link{a, b}.Normalize()
	if idx, ok := linkIndex(s.links, l); ok {
		s.links = append(s.links[:idx], s.links[idx+1:]...)
		s.record(DeltaRecoverLink, l.A, l.B)
	}
	return nil
}

// NodeFaulty reports whether node a is faulty.
func (s *Set) NodeFaulty(a topo.NodeID) bool { return s.node.Test(int(a)) }

// LinkFaulty reports whether the undirected link (a, b) is faulty.
// A link incident to a faulty node is NOT automatically reported faulty:
// the paper keeps node and link faults distinct (Section 4.1), and the
// safety-level machinery composes them itself.
func (s *Set) LinkFaulty(a, b topo.NodeID) bool { return HasLink(s.links, a, b) }

// HasLink reports whether the undirected link (a, b) is in links, a
// slice normalized and sorted as FaultyLinks returns it. The empty
// case, the common one, costs no call.
func HasLink(links []Link, a, b topo.NodeID) bool {
	return len(links) > 0 && searchLink(links, a, b)
}

func searchLink(links []Link, a, b topo.NodeID) bool {
	_, ok := linkIndex(links, Link{a, b}.Normalize())
	return ok
}

// Usable reports whether a message can traverse the edge from a to b:
// both endpoints in the topology, the link itself healthy, and the
// receiving endpoint b nonfaulty. (A faulty destination can still be an
// endpoint of the final hop; the routing layer decides that case — see
// the footnote to Section 4.1. Here we take the conservative transport
// view.)
func (s *Set) Usable(a, b topo.NodeID) bool {
	if !s.t.Adjacent(a, b) {
		return false
	}
	return !s.LinkFaulty(a, b) && !s.node.Test(int(b)) && !s.node.Test(int(a))
}

// NodeFaults returns the number of faulty nodes.
func (s *Set) NodeFaults() int { return s.nodeCount }

// LinkFaults returns the number of faulty links.
func (s *Set) LinkFaults() int { return len(s.links) }

// FaultyNodes returns the faulty node IDs in ascending order.
func (s *Set) FaultyNodes() []topo.NodeID {
	out := make([]topo.NodeID, 0, s.nodeCount)
	s.ForEachFaultyNode(func(a topo.NodeID) { out = append(out, a) })
	return out
}

// ForEachFaultyNode calls fn for every faulty node in ascending order,
// without building the slice FaultyNodes returns.
func (s *Set) ForEachFaultyNode(fn func(a topo.NodeID)) {
	s.node.ForEach(func(a int) { fn(topo.NodeID(a)) })
}

// FaultyLinks returns the faulty links, normalized, in deterministic
// (sorted) order. The slice is already kept sorted, so this is one copy.
func (s *Set) FaultyLinks() []Link {
	if len(s.links) == 0 {
		return []Link{}
	}
	return append([]Link(nil), s.links...)
}

// HasLinkFaults reports whether any link fault is present; the core
// package uses this to decide between GS and EGS.
func (s *Set) HasLinkFaults() bool { return len(s.links) > 0 }

// AdjacentFaultyLinks returns the dimensions of the faulty links incident
// to node a, ascending; a dimension with several faulty sibling links is
// listed once. A node with a non-empty result belongs to the paper's set
// N2 (Section 4.1).
func (s *Set) AdjacentFaultyLinks(a topo.NodeID) []int {
	if len(s.links) == 0 {
		return nil
	}
	var dims []int
	var sibs []topo.NodeID
	for i := 0; i < s.t.Dim(); i++ {
		sibs = s.t.Siblings(a, i, sibs[:0])
		for _, b := range sibs {
			if s.LinkFaulty(a, b) {
				dims = append(dims, i)
				break
			}
		}
	}
	return dims
}

// String renders the fault set in figure notation.
func (s *Set) String() string {
	var b strings.Builder
	b.WriteString("nodes{")
	for i, a := range s.FaultyNodes() {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(s.t.Format(a))
	}
	b.WriteString("}")
	if len(s.links) > 0 {
		b.WriteString(" links{")
		for i, l := range s.FaultyLinks() {
			if i > 0 {
				b.WriteString(", ")
			}
			fmt.Fprintf(&b, "(%s,%s)", s.t.Format(l.A), s.t.Format(l.B))
		}
		b.WriteString("}")
	}
	return b.String()
}
