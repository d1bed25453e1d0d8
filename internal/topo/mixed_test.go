package topo

import "testing"

// TestMixedCoordsRoundTrip pins the single-pass accessors to the
// stride-based ones over every node of a few shapes: CoordsInto must
// agree with Coord per dimension and Index must invert it.
func TestMixedCoordsRoundTrip(t *testing.T) {
	for _, shape := range [][]int{{2, 3, 2}, {4, 2, 5}, {3, 3, 3, 3}, {2, 2}} {
		m := MustMixed(shape...)
		var coords []int
		for a := 0; a < m.Nodes(); a++ {
			id := NodeID(a)
			coords = m.CoordsInto(id, coords[:0])
			if len(coords) != m.Dim() {
				t.Fatalf("%v: CoordsInto(%d) has %d digits, want %d", shape, a, len(coords), m.Dim())
			}
			for i, v := range coords {
				if want := m.Coord(id, i); v != want {
					t.Fatalf("%v: CoordsInto(%d)[%d] = %d, Coord gives %d", shape, a, i, v, want)
				}
			}
			if back := m.Index(coords); back != id {
				t.Fatalf("%v: Index(CoordsInto(%d)) = %d", shape, a, back)
			}
		}
	}
}

// TestMixedPairwiseAccessors checks the divmod-walk Distance, Adjacent,
// LinkDim, and NavIn against their coordinate-by-coordinate definitions
// over every node pair of GH(4x3x2).
func TestMixedPairwiseAccessors(t *testing.T) {
	m := MustMixed(2, 3, 4)
	for a := 0; a < m.Nodes(); a++ {
		for b := 0; b < m.Nodes(); b++ {
			ia, ib := NodeID(a), NodeID(b)
			dist, link := 0, -1
			var nav NavVector
			for i := 0; i < m.Dim(); i++ {
				if m.Coord(ia, i) != m.Coord(ib, i) {
					dist++
					nav |= 1 << uint(i)
					if link < 0 {
						link = i
					}
				}
			}
			if got := m.Distance(ia, ib); got != dist {
				t.Fatalf("Distance(%d,%d) = %d, want %d", a, b, got, dist)
			}
			if got := m.Adjacent(ia, ib); got != (dist == 1) {
				t.Fatalf("Adjacent(%d,%d) = %v, want %v", a, b, got, dist == 1)
			}
			if dist == 1 {
				if got := m.LinkDim(ia, ib); got != link {
					t.Fatalf("LinkDim(%d,%d) = %d, want %d", a, b, got, link)
				}
			}
			if got := NavIn(m, ia, ib); got != nav {
				t.Fatalf("NavIn(%d,%d) = %b, want %b", a, b, got, nav)
			}
		}
	}
}

// TestSiblingMatchesSiblings pins the allocation-free Sibling accessor
// to the order Siblings lists a node's neighbors in.
func TestSiblingMatchesSiblings(t *testing.T) {
	for _, tp := range []Topology{MustCube(5), MustMixed(3, 2, 4), MustMixed(4, 3, 2, 2)} {
		for a := 0; a < tp.Nodes(); a++ {
			for i := 0; i < tp.Dim(); i++ {
				for k, want := range tp.Siblings(NodeID(a), i, nil) {
					if got := tp.Sibling(NodeID(a), i, k); got != want {
						t.Fatalf("%v: Sibling(%s, %d, %d) = %s, want %s", tp, tp.Format(NodeID(a)), i, k, tp.Format(got), tp.Format(want))
					}
				}
			}
		}
	}
}
