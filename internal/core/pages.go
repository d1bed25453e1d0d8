package core

// Level tables are stored as directories of fixed-size pages. A page
// never changes once the run that wrote it has returned, so assignments
// share pages freely: a repair forks its predecessor's directory and
// copies a page only on its first write to it, a cold run starts from
// one all-n page shared by every slot in the same way, and Detach shares
// both tables outright. Publishing a repaired assignment therefore costs
// the pages the repair touched, not the 2^n-byte table, and a cold run
// pays only for the pages its faults reach.
//
// Each page carries, in the same allocation, one safe bit per node: the
// bit is set exactly when the node's level is n. write sets a level and
// its bit together, so the bits are shared, copied on write and
// detached with the bytes they mirror, and nothing rebuilds them by
// scanning a table. The source step decides a safe source from its bit
// alone (Router.safeSource), which at Q20 reads 128 KiB of bits instead
// of the 1 MiB level table.

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
//
// A page's slice covers its levels only, so ranging over it visits
// nodes; its capacity runs on into a tail of tailBytes(len(page)) bytes
// that holds the page's safe bits, bit i of the tail for the page's
// node i (512 bytes on a full page). Nothing appends to a page.
type levelTable [][]uint8

// pageCount returns the number of pages of a table over nodes nodes.
func pageCount(nodes int) int { return (nodes + pageMask) >> pageShift }

// tailBytes returns the size of the safe-bit tail of a page of nodes
// levels.
func tailBytes(nodes int) int { return (nodes + 7) >> 3 }

// at returns node a's level.
func (t levelTable) at(a int) uint8 { return t[a>>pageShift][a&pageMask] }

// safe reports whether node a's level is n, from its safe bit.
func (t levelTable) safe(a int) bool {
	page := t[a>>pageShift]
	return page[:cap(page)][len(page)+a&pageMask>>3]&(1<<(a&7)) != 0
}

// uniformTable returns a table of nodes entries, all n with their safe
// bits set, whose directory points every full page's slot at one shared
// page, except that each page p with own[p] set is a private copy for
// the run about to write it. A short last page, whose tail sits
// elsewhere than a full page's, is always private. The shared page and
// the private ones are cut from one allocation; a write to any other
// page copies it first (write). own may be nil.
func uniformTable(nodes int, n uint8, own []bool) levelTable {
	t := make(levelTable, pageCount(nodes))
	size := min(nodes, pageSize)
	stride := size + tailBytes(size)
	private := func(p int) bool {
		return p < len(own) && own[p] || nodes-p<<pageShift < size
	}
	slots := 0
	for p := range t {
		if private(p) {
			slots++
		}
	}
	if slots < len(t) {
		slots++ // the shared page
	}
	buf := make([]uint8, slots*stride)
	fill(buf[:size], n)
	fill(buf[size:stride], 0xff)
	for off := stride; off < len(buf); off += copy(buf[off:], buf[:off]) {
	}
	// The shared page, if any slot needs it, is the last one.
	shared, next := buf[len(buf)-stride:], 0
	for p := range t {
		if !private(p) {
			t[p] = shared[:size:stride]
			continue
		}
		m := min(nodes-p<<pageShift, pageSize)
		end := next + m + tailBytes(m)
		if m < size {
			fill(buf[next+m:end], 0xff) // a short page's tail starts inside its slot
		}
		t[p] = buf[next : next+m : end]
		next += stride
	}
	return t
}

// fill sets every byte of b to v, by copies that double the filled
// prefix.
func fill(b []uint8, v uint8) {
	if len(b) == 0 {
		return
	}
	b[0] = v
	for off := 1; off < len(b); off += copy(b[off:], b[:off]) {
	}
}

// write sets node a's level to v, and its safe bit to v == n, in a
// table one run is building. owned[p] reports whether the run holds a
// private copy of page p; the first write to any other page copies it,
// tail included, so the table the run forked from never changes.
func (t levelTable) write(owned []bool, a int, v, n uint8) {
	p := a >> pageShift
	page := t[p]
	if !owned[p] {
		c := make([]uint8, cap(page))
		copy(c, page[:cap(page)])
		page = c[:len(page)]
		t[p], owned[p] = page, true
	}
	off := a & pageMask
	page[off] = v
	tail, bit := page[len(page):cap(page)], uint8(1)<<(off&7)
	if v == n {
		tail[off>>3] |= bit
	} else {
		tail[off>>3] &^= bit
	}
}
