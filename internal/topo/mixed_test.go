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

// TestGHMixedValidation checks NewMixed's refusals and the shape
// accessors of the paper's GH(2x3x2).
func TestGHMixedValidation(t *testing.T) {
	if _, err := NewMixed(nil); err == nil {
		t.Error("no dimensions should fail")
	}
	if _, err := NewMixed([]int{2, 1, 2}); err == nil {
		t.Error("radix 1 should fail")
	}
	m, err := NewMixed([]int{2, 3, 2})
	if err != nil {
		t.Fatal(err)
	}
	if m.Nodes() != 12 || m.Dim() != 3 || m.Degree() != 4 {
		t.Errorf("GH(2x3x2): nodes=%d dim=%d degree=%d", m.Nodes(), m.Dim(), m.Degree())
	}
	if m.Radix(0) != 2 || m.Radix(1) != 3 || m.Radix(2) != 2 {
		t.Errorf("radixes = %d %d %d, want 2 3 2", m.Radix(0), m.Radix(1), m.Radix(2))
	}
}

func TestGHMustMixedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustMixed(1) should panic")
		}
	}()
	MustMixed(1)
}

// TestGHMixedFormatParse pins the figure notation: Format and Parse
// invert each other over GH(2x3x2), and malformed addresses are refused.
func TestGHMixedFormatParse(t *testing.T) {
	m := MustMixed(2, 3, 2)
	for a := 0; a < m.Nodes(); a++ {
		s := m.Format(NodeID(a))
		if back, err := m.Parse(s); err != nil || back != NodeID(a) {
			t.Fatalf("round trip %d -> %q -> %d (%v)", a, s, back, err)
		}
	}
	for _, bad := range []string{"05", "031"} {
		if _, err := m.Parse(bad); err == nil {
			t.Errorf("Parse(%q) should fail", bad)
		}
	}
	if s := m.Format(m.MustParse("021")); s != "021" {
		t.Errorf("Format(MustParse(021)) = %q", s)
	}
}

// TestGHMixedParseReadsFormat pins that Parse reads exactly what Format
// writes: every node of the dotted wide-radix shapes GH(12x3),
// GH(3x11x2) and GH(10x2x11) and of the narrow shapes round-trips, and
// addresses Format never writes are refused.
func TestGHMixedParseReadsFormat(t *testing.T) {
	shapes := [][]int{{3, 12}, {2, 11, 3}, {11, 2, 10}, {2, 3, 2}, {4, 2, 5}, {3, 3, 3, 3}, {2, 2}, {3, 2, 4, 3}}
	for _, shape := range shapes {
		m := MustMixed(shape...)
		for a := 0; a < m.Nodes(); a++ {
			s := m.Format(NodeID(a))
			if back, err := m.Parse(s); err != nil || back != NodeID(a) {
				t.Fatalf("%v: round trip %d -> %q -> %d (%v)", m, a, s, back, err)
			}
		}
	}
	for _, c := range []struct {
		m   *Mixed
		bad []string
	}{
		{MustMixed(3, 12), []string{":2", "9.", ".2", "12.0", "9.2.1", "+9.2", "9.3", "92", "", ".", "9.-1", "\uff19.2", "9.2\u00e9", "\u00e9.2", "00.2", "9.02", "011.0"}},
		{MustMixed(2, 11, 3), []string{"2.10", "3.0.0", "0.11.0", "0.:.0", "0..0", "0.0.0.0"}},
		{MustMixed(2, 3, 2), []string{":00", "0.1", "0\u00e9", "\u00e9", "+01", "030"}},
	} {
		for _, s := range c.bad {
			if id, err := c.m.Parse(s); err == nil {
				t.Errorf("%v: Parse(%q) = %d, want an error", c.m, s, id)
			}
		}
	}
}

// TestGHMixedWideRadixFormat checks that radixes above 10 switch the
// address to dotted decimal.
func TestGHMixedWideRadixFormat(t *testing.T) {
	if s := MustMixed(12, 2).Format(11); s != "0.11" {
		t.Errorf("wide-radix format = %q, want 0.11", s)
	}
}

func TestGHMixedCoordAndWithCoord(t *testing.T) {
	m := MustMixed(2, 3, 2)
	a := m.MustParse("021")
	if m.Coord(a, 0) != 1 || m.Coord(a, 1) != 2 || m.Coord(a, 2) != 0 {
		t.Fatalf("coords of 021: %d %d %d", m.Coord(a, 0), m.Coord(a, 1), m.Coord(a, 2))
	}
	if got := m.WithCoord(a, 1, 0); got != m.MustParse("001") {
		t.Errorf("WithCoord(021, 1, 0) = %s", m.Format(got))
	}
	if got := m.WithCoord(a, 2, 1); got != m.MustParse("121") {
		t.Errorf("WithCoord(021, 2, 1) = %s", m.Format(got))
	}
}

// TestGHMixedDistanceAndAdjacency checks the paper's distance-3 pair and
// that each GH dimension is a complete graph: 000 and 020 differ in one
// radix-3 coordinate and are adjacent.
func TestGHMixedDistanceAndAdjacency(t *testing.T) {
	m := MustMixed(2, 3, 2)
	if d := m.Distance(m.MustParse("010"), m.MustParse("101")); d != 3 {
		t.Errorf("Distance(010, 101) = %d, want 3", d)
	}
	if !m.Adjacent(m.MustParse("000"), m.MustParse("020")) {
		t.Error("000 and 020 should be adjacent (complete connection)")
	}
	if m.Adjacent(m.MustParse("000"), m.MustParse("000")) {
		t.Error("a node is not adjacent to itself")
	}
	if m.Adjacent(m.MustParse("000"), m.MustParse("011")) {
		t.Error("a two-coordinate difference is not an edge")
	}
}

// TestGHMixedSiblings checks that the siblings along a dimension are the
// node's other coordinate values there: two along radix-3 dimension 1,
// one along binary dimension 0.
func TestGHMixedSiblings(t *testing.T) {
	m := MustMixed(2, 3, 2)
	a := m.MustParse("010")
	if sibs := m.Siblings(a, 1, nil); Path(sibs).FormatWith(m) != "000 -> 020" {
		t.Errorf("dimension-1 siblings of 010 = %s, want 000, 020", Path(sibs).FormatWith(m))
	}
	if sibs := m.Siblings(a, 0, nil); len(sibs) != 1 || sibs[0] != m.MustParse("011") {
		t.Errorf("dimension-0 siblings of 010 = %s, want 011", Path(sibs).FormatWith(m))
	}
}

// TestGHMixedPath checks Path on a GH: the paper's worked route is a
// simple valid 3-hop path, and a jump, the empty path and a loop are
// caught.
func TestGHMixedPath(t *testing.T) {
	m := MustMixed(2, 3, 2)
	p := Path(m.MustParseAll("010", "000", "001", "101"))
	if !p.Valid(m) || !p.Simple() || p.Len() != 3 {
		t.Error("paper path should be a simple valid 3-hop path")
	}
	if got := p.FormatWith(m); got != "010 -> 000 -> 001 -> 101" {
		t.Errorf("FormatWith = %s", got)
	}
	if Path(m.MustParseAll("010", "101")).Valid(m) {
		t.Error("a non-adjacent pair is not a path")
	}
	var empty Path
	if empty.Valid(m) || empty.Len() != 0 {
		t.Error("the empty path is invalid with length 0")
	}
	if Path(m.MustParseAll("010", "000", "010")).Simple() {
		t.Error("a loop is not simple")
	}
}
