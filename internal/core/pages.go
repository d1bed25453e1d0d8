package core

import "slices"

// Level tables are stored as directories of fixed-size pages. A page
// never changes once the run that wrote it has returned, so assignments
// share pages freely: a repair forks its predecessor's directory and
// copies a page only on its first write to it, a cold run starts from
// one all-n page shared by every slot in the same way, and Detach shares
// both tables outright. Publishing a repaired assignment therefore costs
// the pages the repair touched, not the 2^n-byte table, and a cold run
// pays only for the pages its faults reach.

const (
	// pageShift sets the page size: 4096 nodes, one byte each. A page
	// spans the low 12 dimensions of a binary cube, so NODE_STATUS reads
	// those neighbors from the node's own page.
	pageShift = 12
	pageSize  = 1 << pageShift
	pageMask  = pageSize - 1
)

// levelTable holds one byte per node: node a's level is
// t[a>>pageShift][a&pageMask]. Every page holds pageSize nodes, except
// that a table smaller than one page is a single page of its own size
// and the last page of a generalized hypercube may be short.
type levelTable [][]uint8

// pageCount returns the number of pages of a table over nodes nodes.
func pageCount(nodes int) int { return (nodes + pageMask) >> pageShift }

// at returns node a's level.
func (t levelTable) at(a int) uint8 { return t[a>>pageShift][a&pageMask] }

// gatherBlock is the most pairs Router.Summaries gathers the source
// levels of before deciding the first of them.
const gatherBlock = 64

// gather loads the level of each pair's source into lv, and 0 for a
// source at or beyond nodes, which it does not read. The loads do not
// depend on one another, so on a table larger than the caches their
// misses overlap instead of stalling one at a time. pairs holds at most
// gatherBlock pairs.
func (t levelTable) gather(pairs []Pair, nodes int, lv *[gatherBlock]uint8) {
	for i, p := range pairs {
		var v uint8
		if int(p.Src) < nodes {
			v = t.at(int(p.Src))
		}
		lv[i] = v
	}
}

// uniformTable returns a table of nodes entries, all v, whose directory
// points every slot at one shared page, except that each page p with
// own[p] set is a private copy for the run about to write it. The shared
// page and the copies are cut from one allocation; a write to any other
// page copies it first (write). own may be nil.
func uniformTable(nodes int, v uint8, own []bool) levelTable {
	t := make(levelTable, pageCount(nodes))
	size := min(nodes, pageSize)
	slots := 0
	for _, o := range own {
		if o {
			slots++
		}
	}
	if slots < len(t) {
		slots++ // the shared page
	}
	buf := make([]uint8, slots*size)
	for i := range buf[:size] {
		buf[i] = v
	}
	for off := size; off < len(buf); off += copy(buf[off:], buf[:off]) {
	}
	// The shared page, if any slot needs it, is the last one.
	shared, next := buf[len(buf)-size:], 0
	for p := range t {
		n := min(nodes-p<<pageShift, pageSize)
		if p < len(own) && own[p] {
			t[p] = buf[next : next+n : next+n]
			next += size
		} else {
			t[p] = shared[:n]
		}
	}
	return t
}

// write sets node a's level to v in a table one run is building.
// owned[p] reports whether the run holds a private copy of page p; the
// first write to any other page copies it, so the table the run forked
// from never changes.
func (t levelTable) write(owned []bool, a int, v uint8) {
	p := a >> pageShift
	if !owned[p] {
		t[p] = slices.Clone(t[p])
		owned[p] = true
	}
	t[p][a&pageMask] = v
}
