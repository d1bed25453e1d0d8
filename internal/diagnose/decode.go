package diagnose

import (
	"fmt"
	"sort"

	"repro/internal/bitset"
	"repro/internal/topo"
)

// Verdict is the decoder's confidence class.
type Verdict uint8

const (
	// VerdictIdentified: exactly one fault set of size ≤ bound is
	// consistent with the syndrome — under the |F| ≤ bound assumption
	// it IS the fault set.
	VerdictIdentified Verdict = iota
	// VerdictAmbiguous: zero or several consistent fault sets within
	// the bound (the bound was exceeded, or the search was truncated).
	// Candidates carries what the search found.
	VerdictAmbiguous
)

// String names the verdict for status surfaces.
func (v Verdict) String() string {
	switch v {
	case VerdictIdentified:
		return "identified"
	case VerdictAmbiguous:
		return "ambiguous"
	}
	return fmt.Sprintf("verdict(%d)", uint8(v))
}

// Diagnosability returns the default PMC fault bound for t: the
// largest |F| for which every syndrome decodes to a unique fault set.
// For the binary cube the classical result is n for n ≥ 3 (Q2 is only
// 1-diagnosable — its 4-cycle admits two consistent 2-sets — and Q1 is
// 0-diagnosable). For generalized hypercubes the bound is conservative:
// the degree, capped by Karp's global necessary condition
// |F| ≤ (N-1)/2, which complete-graph dimensions can hit first.
func Diagnosability(t topo.Topology) int {
	if c, ok := t.(*topo.Cube); ok {
		switch c.Dim() {
		case 1:
			return 0
		case 2:
			return 1
		default:
			return c.Dim()
		}
	}
	b := t.Degree()
	if m := (t.Nodes() - 1) / 2; m < b {
		b = m
	}
	return b
}

// DecodeStats instrument one decode for the diagnose_* metrics.
type DecodeStats struct {
	Tests    int `json:"tests"`    // completed directed tests consumed
	Forced   int `json:"forced"`   // nodes labeled before any branching
	Branches int `json:"branches"` // branch-and-bound tree nodes visited
}

// Options tune Decode and DiagnoseLocal. The zero value is the
// recommended configuration.
type Options struct {
	// Bound is the assumed maximum fault count (0 means
	// Diagnosability(t)). Decoding is only guaranteed exact while the
	// true fault count stays within it.
	Bound int
}

const (
	// maxCandidates caps the consistent fault sets an Ambiguous verdict
	// collects before the search stops; at least 2 are needed to show
	// that a decode is not unique.
	maxCandidates = 8
	// maxBranches is a safety valve on the search tree. Exceeding it
	// yields Ambiguous with Exhaustive=false.
	maxBranches = 1 << 20
)

func (o Options) withDefaults(t topo.Topology) Options {
	if o.Bound <= 0 {
		o.Bound = Diagnosability(t)
	}
	return o
}

// Diagnosis is the decoder's output.
type Diagnosis struct {
	Verdict Verdict `json:"verdict"`
	// Bound is the fault budget the decode assumed.
	Bound int `json:"bound"`
	// Faulty is the identified fault set (ascending), nil unless
	// Verdict is VerdictIdentified.
	Faulty []topo.NodeID `json:"faulty"`
	// Candidates holds the consistent fault sets an ambiguous decode
	// found, each ascending, ordered by discovery; empty means NO set
	// of ≤ Bound faults explains the syndrome (the bound is certainly
	// exceeded).
	Candidates [][]topo.NodeID `json:"candidates,omitempty"`
	// Exhaustive reports that the search ran to completion: the listed
	// candidates are ALL consistent sets within the bound.
	Exhaustive bool        `json:"exhaustive"`
	Stats      DecodeStats `json:"stats"`
}

// Node labels during decoding.
const (
	labelUnknown int8 = iota
	labelGood
	labelBad
)

// decoder is the shared constraint-propagation + branch-and-bound
// engine behind Decode (whole cube) and DiagnoseLocal (a 2-ball).
type decoder struct {
	t   topo.Topology
	syn *Syndrome
	// allowed restricts the decode to a node subset (nil = all nodes);
	// tests with either endpoint outside are ignored.
	allowed bitset.Set
	nodes   []topo.NodeID // the nodes being labeled
	bound   int

	labels   []int8
	badCount int
	// trail records labeled nodes for backtracking undo.
	trail []topo.NodeID
	// queue is the propagation worklist (indices into labels).
	queue []topo.NodeID

	branches  int
	truncated bool

	// onLeaf consumes one full consistent labeling; returning false
	// stops the search.
	onLeaf func(d *decoder) bool

	scratch []topo.NodeID
}

func newDecoder(syn *Syndrome, allowed bitset.Set, nodes []topo.NodeID, opts Options) *decoder {
	t := syn.Topology()
	return &decoder{
		t:       t,
		syn:     syn,
		allowed: allowed,
		nodes:   nodes,
		bound:   opts.Bound,
		labels:  make([]int8, t.Nodes()),
	}
}

func (d *decoder) in(v topo.NodeID) bool {
	return d.allowed == nil || d.allowed.Test(int(v))
}

// force labels v, returning false on contradiction (v already carries
// the opposite label, or the fault budget is exhausted). Newly labeled
// nodes join the propagation queue.
func (d *decoder) force(v topo.NodeID, lab int8) bool {
	switch d.labels[v] {
	case lab:
		return true
	case labelUnknown:
	default:
		return false
	}
	if lab == labelBad {
		if d.badCount == d.bound {
			return false
		}
		d.badCount++
	}
	d.labels[v] = lab
	d.trail = append(d.trail, v)
	d.queue = append(d.queue, v)
	return true
}

// propagate drains the queue, applying both PMC inference rules to each
// freshly labeled node v:
//
//  1. a good tester's reports are the truth: if v is good, every
//     completed test v→w forces w to the reported status;
//  2. a report contradicted by its testee's known status convicts the
//     tester: if u→v reports the wrong status for v, u must be faulty
//     (a good u cannot misreport).
//
// Faulty nodes' own reports carry no information. Returns false on
// contradiction.
func (d *decoder) propagate() bool {
	for len(d.queue) > 0 {
		v := d.queue[len(d.queue)-1]
		d.queue = d.queue[:len(d.queue)-1]
		lv := d.labels[v]
		vBad := lv == labelBad
		rank := 0
		for dim := 0; dim < d.t.Dim(); dim++ {
			d.scratch = d.t.Siblings(v, dim, d.scratch[:0])
			for _, w := range d.scratch {
				r := rank
				rank++
				if !d.in(w) {
					continue
				}
				// Rule 1: v's own report about w.
				if lv == labelGood {
					if says, tested := d.syn.at(v, r); tested {
						want := labelGood
						if says {
							want = labelBad
						}
						if !d.force(w, want) {
							return false
						}
					}
				}
				// Rule 2: w's report about v (neighborhood is
				// symmetric, so w is also a tester of v).
				if says, tested := d.syn.Result(w, v); tested {
					if says != vBad && !d.force(w, labelBad) {
						return false
					}
				}
			}
		}
	}
	return true
}

// undo rewinds the trail (and bad count) to mark.
func (d *decoder) undo(mark int) {
	for i := len(d.trail) - 1; i >= mark; i-- {
		v := d.trail[i]
		if d.labels[v] == labelBad {
			d.badCount--
		}
		d.labels[v] = labelUnknown
	}
	d.trail = d.trail[:mark]
	d.queue = d.queue[:0]
}

// assume labels v and propagates; reports consistency.
func (d *decoder) assume(v topo.NodeID, lab int8) bool {
	if !d.force(v, lab) {
		return false
	}
	return d.propagate()
}

// forceComponents applies the mutual-0 pre-pass: an edge both of whose
// directed tests completed and reported 0 ties its endpoints to the
// same status (a good endpoint would have exposed a bad one), so each
// such component is all-good or all-bad — and a component larger than
// the fault budget cannot be all-bad. In the common case (few faults,
// most links up) this labels almost the whole cube good before any
// branching.
func (d *decoder) forceComponents() bool {
	n := d.t.Nodes()
	parent := make([]int32, n)
	size := make([]int32, n)
	for i := range parent {
		parent[i] = int32(i)
		size[i] = 1
	}
	var find func(x int32) int32
	find = func(x int32) int32 {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b int32) {
		ra, rb := find(a), find(b)
		if ra == rb {
			return
		}
		if size[ra] < size[rb] {
			ra, rb = rb, ra
		}
		parent[rb] = ra
		size[ra] += size[rb]
	}
	for _, u := range d.nodes {
		rank := 0
		for dim := 0; dim < d.t.Dim(); dim++ {
			d.scratch = d.t.Siblings(u, dim, d.scratch[:0])
			for _, v := range d.scratch {
				r := rank
				rank++
				if u > v || !d.in(v) {
					continue // one pass per undirected edge
				}
				uv, ok1 := d.syn.at(u, r)
				vu, ok2 := d.syn.Result(v, u)
				if ok1 && ok2 && !uv && !vu {
					union(int32(u), int32(v))
				}
			}
		}
	}
	for _, u := range d.nodes {
		if size[find(int32(u))] > int32(d.bound) {
			if !d.force(u, labelGood) {
				return false
			}
		}
	}
	return d.propagate()
}

// search branches on the remaining unknown nodes in d.nodes[idx:].
// Returns false when onLeaf asked to stop or the branch budget ran dry.
func (d *decoder) search(idx int) bool {
	for idx < len(d.nodes) && d.labels[d.nodes[idx]] != labelUnknown {
		idx++
	}
	if idx == len(d.nodes) {
		return d.onLeaf(d)
	}
	d.branches++
	if d.branches > maxBranches {
		d.truncated = true
		return false
	}
	v := d.nodes[idx]
	for _, lab := range [2]int8{labelGood, labelBad} {
		if lab == labelBad && d.badCount == d.bound {
			continue
		}
		mark := len(d.trail)
		ok := d.assume(v, lab)
		if ok && !d.search(idx+1) {
			return false
		}
		d.undo(mark)
	}
	return true
}

// badSet snapshots the currently-bad nodes, ascending.
func (d *decoder) badSet() []topo.NodeID {
	out := make([]topo.NodeID, 0, d.badCount)
	for _, v := range d.nodes {
		if d.labels[v] == labelBad {
			out = append(out, v)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// allNodes lists every node of t in ascending order.
func allNodes(t topo.Topology) []topo.NodeID {
	out := make([]topo.NodeID, t.Nodes())
	for i := range out {
		out[i] = topo.NodeID(i)
	}
	return out
}

// Decode identifies the fault set behind a syndrome. While the true
// fault count is within opts.Bound the decode is exact: the PMC
// diagnosability of the topology guarantees a unique consistent fault
// set, whatever the faulty testers reported. Beyond the bound the
// decoder never guesses — it returns VerdictAmbiguous carrying the
// consistent candidate sets it found (possibly none).
func Decode(syn *Syndrome, opts Options) *Diagnosis {
	t := syn.Topology()
	opts = opts.withDefaults(t)
	d := newDecoder(syn, nil, allNodes(t), opts)

	diag := &Diagnosis{
		Bound: opts.Bound,
		Stats: DecodeStats{Tests: syn.Tests()},
	}
	var candidates [][]topo.NodeID
	d.onLeaf = func(d *decoder) bool {
		candidates = append(candidates, d.badSet())
		return len(candidates) < maxCandidates
	}
	if d.forceComponents() {
		diag.Stats.Forced = len(d.trail)
		complete := d.search(0)
		diag.Exhaustive = complete && !d.truncated
		if d.truncated {
			diag.Exhaustive = false
		} else if !complete {
			// onLeaf stopped the search at the candidate cap.
			diag.Exhaustive = false
		}
	} else {
		// The forced labels are implied by EVERY consistent labeling
		// within the bound, so a contradiction here proves there is
		// none: the bound is certainly exceeded.
		diag.Exhaustive = true
	}
	diag.Stats.Branches = d.branches
	if len(candidates) == 1 && diag.Exhaustive {
		diag.Verdict = VerdictIdentified
		diag.Faulty = candidates[0]
	} else {
		diag.Verdict = VerdictAmbiguous
		diag.Candidates = candidates
	}
	return diag
}
