package topo

import (
	"strconv"
	"strings"
	"testing"
	"testing/quick"
)

func TestNewCubeBounds(t *testing.T) {
	if _, err := NewCube(0); err == nil {
		t.Error("NewCube(0) should fail")
	}
	if _, err := NewCube(-3); err == nil {
		t.Error("NewCube(-3) should fail")
	}
	if _, err := NewCube(MaxDim + 1); err == nil {
		t.Error("NewCube(MaxDim+1) should fail")
	}
	for n := 1; n <= MaxDim; n++ {
		c, err := NewCube(n)
		if err != nil {
			t.Fatalf("NewCube(%d): %v", n, err)
		}
		if c.Dim() != n {
			t.Errorf("Dim() = %d, want %d", c.Dim(), n)
		}
		if c.Nodes() != 1<<uint(n) {
			t.Errorf("Nodes() = %d, want %d", c.Nodes(), 1<<uint(n))
		}
		if c.Links() != n<<uint(n-1) {
			t.Errorf("Links() = %d, want %d", c.Links(), n<<uint(n-1))
		}
	}
}

func TestMustCubePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustCube(0) should panic")
		}
	}()
	MustCube(0)
}

func TestNeighborInvolution(t *testing.T) {
	c := MustCube(5)
	for a := 0; a < c.Nodes(); a++ {
		for i := 0; i < c.Dim(); i++ {
			b := c.Neighbor(NodeID(a), i)
			if b == NodeID(a) {
				t.Fatalf("node is its own neighbor: %d dim %d", a, i)
			}
			if back := c.Neighbor(b, i); back != NodeID(a) {
				t.Fatalf("Neighbor not an involution: %d -> %d -> %d", a, b, back)
			}
			if Hamming(NodeID(a), b) != 1 {
				t.Fatalf("neighbor at Hamming distance %d", Hamming(NodeID(a), b))
			}
		}
	}
}

func TestNeighborPanicsOnBadDim(t *testing.T) {
	c := MustCube(3)
	defer func() {
		if recover() == nil {
			t.Error("Neighbor with dim out of range should panic")
		}
	}()
	c.Neighbor(0, 3)
}

func TestNeighborsList(t *testing.T) {
	c := MustCube(4)
	got := c.Neighbors(c.MustParse("0110"), nil)
	want := c.MustParseAll("0111", "0100", "0010", "1110")
	if len(got) != len(want) {
		t.Fatalf("got %d neighbors, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("neighbor[%d] = %s, want %s", i, c.Format(got[i]), c.Format(want[i]))
		}
	}
}

func TestNeighborsReusesBuffer(t *testing.T) {
	c := MustCube(4)
	buf := make([]NodeID, 0, 8)
	got := c.Neighbors(3, buf[:0])
	if len(got) != 4 {
		t.Fatalf("len = %d, want 4", len(got))
	}
	if cap(got) != 8 {
		t.Errorf("buffer was reallocated: cap = %d", cap(got))
	}
}

func TestAdjacent(t *testing.T) {
	c := MustCube(4)
	cases := []struct {
		a, b string
		want bool
	}{
		{"0000", "0001", true},
		{"0000", "1000", true},
		{"0000", "0011", false},
		{"0000", "0000", false},
		{"1111", "0111", true},
		{"1010", "0101", false},
	}
	for _, tc := range cases {
		if got := c.Adjacent(c.MustParse(tc.a), c.MustParse(tc.b)); got != tc.want {
			t.Errorf("Adjacent(%s, %s) = %v, want %v", tc.a, tc.b, got, tc.want)
		}
	}
}

func TestHammingMatchesPaperExamples(t *testing.T) {
	c := MustCube(4)
	// Section 3.2 worked examples.
	if got := Hamming(c.MustParse("1110"), c.MustParse("0001")); got != 4 {
		t.Errorf("H(1110, 0001) = %d, want 4", got)
	}
	if got := Hamming(c.MustParse("0001"), c.MustParse("1100")); got != 3 {
		t.Errorf("H(0001, 1100) = %d, want 3", got)
	}
	// Section 3.3 examples.
	if got := Hamming(c.MustParse("0101"), c.MustParse("0000")); got != 2 {
		t.Errorf("H(0101, 0000) = %d, want 2", got)
	}
	if got := Hamming(c.MustParse("0111"), c.MustParse("1110")); got != 2 {
		t.Errorf("H(0111, 1110) = %d, want 2", got)
	}
}

func TestHammingProperties(t *testing.T) {
	symmetric := func(a, b uint16) bool {
		return Hamming(NodeID(a), NodeID(b)) == Hamming(NodeID(b), NodeID(a))
	}
	if err := quick.Check(symmetric, nil); err != nil {
		t.Error(err)
	}
	identity := func(a uint16) bool { return Hamming(NodeID(a), NodeID(a)) == 0 }
	if err := quick.Check(identity, nil); err != nil {
		t.Error(err)
	}
	triangle := func(a, b, x uint16) bool {
		return Hamming(NodeID(a), NodeID(b)) <= Hamming(NodeID(a), NodeID(x))+Hamming(NodeID(x), NodeID(b))
	}
	if err := quick.Check(triangle, nil); err != nil {
		t.Error(err)
	}
}

func TestWeight(t *testing.T) {
	c := MustCube(4)
	for _, tc := range []struct {
		addr string
		want int
	}{{"0000", 0}, {"0001", 1}, {"0110", 2}, {"1110", 3}, {"1111", 4}} {
		if got := Weight(c.MustParse(tc.addr)); got != tc.want {
			t.Errorf("Weight(%s) = %d, want %d", tc.addr, got, tc.want)
		}
	}
}

func TestNavVector(t *testing.T) {
	c := MustCube(4)
	s, d := c.MustParse("1110"), c.MustParse("0001")
	v := Nav(s, d)
	if v != NavVector(c.MustParse("1111")) {
		t.Fatalf("Nav = %04b, want 1111", v)
	}
	if v.Zero() {
		t.Error("Zero() on nonzero vector")
	}
	if v.Count() != 4 {
		t.Errorf("Count = %d, want 4", v.Count())
	}
	// Crossing dimension 0 resets bit 0 (paper: "after resetting bit 0").
	v2 := v.Flip(0)
	if v2 != NavVector(c.MustParse("1110")) {
		t.Errorf("Flip(0) = %04b, want 1110", v2)
	}
	// Setting a spare dimension on a detour hop.
	v3 := NavVector(c.MustParse("0100")).Flip(3)
	if v3 != NavVector(c.MustParse("1100")) {
		t.Errorf("spare Flip(3) = %04b, want 1100", v3)
	}
	if !Nav(d, d).Zero() {
		t.Error("Nav(d, d) should be zero")
	}
}

func TestPreferredAndSpareDims(t *testing.T) {
	c := MustCube(4)
	s, d := c.MustParse("0001"), c.MustParse("1100")
	pref := c.PreferredDims(s, d)
	want := []int{0, 2, 3}
	if len(pref) != len(want) {
		t.Fatalf("preferred = %v, want %v", pref, want)
	}
	for i := range want {
		if pref[i] != want[i] {
			t.Fatalf("preferred = %v, want %v", pref, want)
		}
	}
	spare := c.SpareDims(s, d)
	if len(spare) != 1 || spare[0] != 1 {
		t.Fatalf("spare = %v, want [1]", spare)
	}
}

func TestPreferredSparePartition(t *testing.T) {
	c := MustCube(6)
	f := func(s, d uint8) bool {
		a, b := NodeID(s)&NodeID(c.Nodes()-1), NodeID(d)&NodeID(c.Nodes()-1)
		p := c.PreferredDims(a, b)
		sp := c.SpareDims(a, b)
		if len(p)+len(sp) != c.Dim() {
			return false
		}
		if len(p) != Hamming(a, b) {
			return false
		}
		seen := map[int]bool{}
		for _, x := range append(append([]int{}, p...), sp...) {
			if seen[x] {
				return false
			}
			seen[x] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFormatParse(t *testing.T) {
	c := MustCube(4)
	if got := c.Format(3); got != "0011" {
		t.Errorf("Format(3) = %q, want 0011", got)
	}
	if got := c.Format(14); got != "1110" {
		t.Errorf("Format(14) = %q, want 1110", got)
	}
	for a := 0; a < c.Nodes(); a++ {
		back, err := c.Parse(c.Format(NodeID(a)))
		if err != nil {
			t.Fatalf("Parse round-trip %d: %v", a, err)
		}
		if back != NodeID(a) {
			t.Fatalf("round-trip %d -> %s -> %d", a, c.Format(NodeID(a)), back)
		}
	}
	if _, err := c.Parse("011"); err == nil {
		t.Error("Parse of short string should fail")
	}
	if _, err := c.Parse("01120"); err == nil {
		t.Error("Parse of 5-char string in 4-cube should fail")
	}
	if _, err := c.Parse("012x"); err == nil {
		t.Error("Parse of non-binary string should fail")
	}
}

// refFormat is the string-building Format that AppendFormat replaced:
// the n-bit binary string, zero-padded, of a cube node, and the
// coordinates of a generalized-cube node joined (dotted above radix
// 10).
func refFormat(tp Topology, a NodeID) string {
	switch t := tp.(type) {
	case *Cube:
		s := strconv.FormatUint(uint64(a), 2)
		if pad := t.dim - len(s); pad > 0 {
			s = strings.Repeat("0", pad) + s
		}
		return s
	case *Mixed:
		wide := false
		parts := make([]string, len(t.radix))
		for i, m := range t.radix {
			wide = wide || m > 10
			parts[len(t.radix)-1-i] = strconv.Itoa(t.Coord(a, i))
		}
		if wide {
			return strings.Join(parts, ".")
		}
		return strings.Join(parts, "")
	}
	panic("unknown topology")
}

// TestAppendFormatMatchesFormatQnAndGH pins AppendFormat and Format to
// the string-building reference on every node of small cubes and
// generalized cubes (wide-radix, dotted ones included) and on
// out-of-range IDs, and checks that AppendFormat into a buffer with room
// allocates nothing.
func TestAppendFormatMatchesFormatQnAndGH(t *testing.T) {
	tops := []Topology{
		MustCube(1), MustCube(4), MustCube(7),
		MustMixed(2, 3, 2), MustMixed(3, 2, 4, 3), MustMixed(3, 12), MustMixed(11, 2, 10),
	}
	buf := make([]byte, 0, 64)
	for _, tp := range tops {
		n := NodeID(tp.Nodes())
		ids := []NodeID{n, n + 5, 1 << 31, ^NodeID(0)}
		for a := NodeID(0); a < n; a++ {
			ids = append(ids, a)
		}
		for _, a := range ids {
			want := refFormat(tp, a)
			if got := tp.Format(a); got != want {
				t.Fatalf("%v: Format(%d) = %q, want %q", tp, a, got, want)
			}
			if got := string(tp.AppendFormat(nil, a)); got != want {
				t.Fatalf("%v: AppendFormat(nil, %d) = %q, want %q", tp, a, got, want)
			}
			if got := string(tp.AppendFormat([]byte(`"x",`), a)); got != `"x",`+want {
				t.Fatalf("%v: AppendFormat after a prefix = %q, want %q", tp, got, `"x",`+want)
			}
		}
		if allocs := testing.AllocsPerRun(100, func() { buf = tp.AppendFormat(buf[:0], n-1) }); allocs != 0 {
			t.Errorf("%v: AppendFormat into a buffer with room allocates %.1f times", tp, allocs)
		}
	}
}

func TestMustParsePanics(t *testing.T) {
	c := MustCube(4)
	defer func() {
		if recover() == nil {
			t.Error("MustParse on bad input should panic")
		}
	}()
	c.MustParse("21")
}

func TestPathValidSimpleLen(t *testing.T) {
	c := MustCube(4)
	p := topoPath(c, "0001", "0000", "1000", "1100")
	if !p.Valid(c) {
		t.Error("paper path should be valid")
	}
	if !p.Simple() {
		t.Error("paper path should be simple")
	}
	if p.Len() != 3 {
		t.Errorf("Len = %d, want 3", p.Len())
	}
	bad := topoPath(c, "0001", "0010")
	if bad.Valid(c) {
		t.Error("non-adjacent step should be invalid")
	}
	loop := topoPath(c, "0001", "0000", "0001")
	if !loop.Valid(c) {
		t.Error("walk with repeats is still a valid walk")
	}
	if loop.Simple() {
		t.Error("walk with repeats is not simple")
	}
	var empty Path
	if empty.Valid(c) {
		t.Error("empty path should be invalid")
	}
	if empty.Len() != 0 {
		t.Error("empty path length should be 0")
	}
}

func topoPath(c *Cube, addrs ...string) Path {
	p := make(Path, len(addrs))
	for i, s := range addrs {
		p[i] = c.MustParse(s)
	}
	return p
}

func TestPathFormat(t *testing.T) {
	c := MustCube(4)
	p := topoPath(c, "1101", "1111", "1011")
	if got := p.FormatWith(c); got != "1101 -> 1111 -> 1011" {
		t.Errorf("FormatWith = %q", got)
	}
}

func TestGrayPath(t *testing.T) {
	c := MustCube(5)
	for a := 0; a < c.Nodes(); a += 3 {
		for b := 0; b < c.Nodes(); b += 5 {
			s, d := NodeID(a), NodeID(b)
			p := c.GrayPath(s, d)
			if !p.Valid(c) || !p.Simple() {
				t.Fatalf("GrayPath(%d, %d) invalid", s, d)
			}
			if p.Len() != Hamming(s, d) {
				t.Fatalf("GrayPath(%d, %d) length %d != H %d", s, d, p.Len(), Hamming(s, d))
			}
			if p[0] != s || p[len(p)-1] != d {
				t.Fatalf("GrayPath endpoints wrong")
			}
		}
	}
}

func TestSubcubeNodes(t *testing.T) {
	c := MustCube(4)
	// Fix dims 2,3 to the value's bits: 01xx around 0101.
	got := c.SubcubeNodes(c.MustParse("0101"), c.MustParse("1100"))
	if len(got) != 4 {
		t.Fatalf("got %d nodes, want 4", len(got))
	}
	want := map[NodeID]bool{}
	for _, s := range []string{"0100", "0101", "0110", "0111"} {
		want[c.MustParse(s)] = true
	}
	for _, a := range got {
		if !want[a] {
			t.Errorf("unexpected subcube node %s", c.Format(a))
		}
	}
	// Fixing every dimension yields exactly the anchor.
	all := c.SubcubeNodes(c.MustParse("1010"), c.MustParse("1111"))
	if len(all) != 1 || all[0] != c.MustParse("1010") {
		t.Errorf("fully-fixed subcube = %v", all)
	}
	// Fixing nothing yields the whole cube.
	if got := c.SubcubeNodes(0, 0); len(got) != 16 {
		t.Errorf("free subcube has %d nodes, want 16", len(got))
	}
}

func TestContains(t *testing.T) {
	c := MustCube(3)
	if !c.Contains(7) {
		t.Error("7 should be in Q3")
	}
	if c.Contains(8) {
		t.Error("8 should not be in Q3")
	}
}
