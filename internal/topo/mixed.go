package topo

import (
	"fmt"
	"strconv"
	"strings"
)

// MaxMixedNodes bounds the size of a mixed-radix topology; 2^22 nodes
// is far past anything the paper evaluates while keeping node tables in
// memory. Since every radix is at least 2 this also caps the dimension
// count at 22, so navigation masks always fit a NavVector.
const MaxMixedNodes = 1 << 22

// Mixed is the generalized hypercube GH(m_{n-1} x ... x m_0) of Bhuyan
// and Agrawal (the paper's Section 4.2). Nodes are mixed-radix
// coordinate vectors indexed in row-major order with dimension 0 as the
// least significant digit; two nodes are adjacent iff they differ in
// exactly one coordinate, so the m_i nodes sharing all coordinates
// except dimension i form a complete subgraph and any dimension is
// crossed in a single hop. With every m_i = 2 the structure coincides
// exactly with the binary cube.
type Mixed struct {
	radix  []int // radix[i] = m_i, the size of dimension i
	stride []int // stride[i] = product of radix[0..i-1]
	nodes  int
	degree int
	wide   bool // some radix exceeds 10, so Format dots the digits
}

// NewMixed builds GH(radix[n-1] x ... x radix[0]). The slice is given
// in dimension order radix[0] = m_0 first; every m_i must be at least 2.
func NewMixed(radix []int) (*Mixed, error) {
	if len(radix) == 0 {
		return nil, fmt.Errorf("topo: no dimensions")
	}
	t := &Mixed{
		radix:  append([]int(nil), radix...),
		stride: make([]int, len(radix)),
	}
	total := 1
	for i, m := range radix {
		if m < 2 {
			return nil, fmt.Errorf("topo: dimension %d has radix %d < 2", i, m)
		}
		t.stride[i] = total
		total *= m
		if total > MaxMixedNodes {
			return nil, fmt.Errorf("topo: too many nodes")
		}
		t.degree += m - 1
		t.wide = t.wide || m > 10
	}
	t.nodes = total
	return t, nil
}

// MustMixed is NewMixed for compile-time-constant shapes; it panics on
// error.
func MustMixed(radix ...int) *Mixed {
	t, err := NewMixed(radix)
	if err != nil {
		panic(err)
	}
	return t
}

// Dim returns the number of dimensions n.
func (t *Mixed) Dim() int { return len(t.radix) }

// String renders the topology name in the paper's notation, highest
// dimension first ("GH(2x3x2)").
func (t *Mixed) String() string {
	var b strings.Builder
	b.WriteString("GH(")
	for i := len(t.radix) - 1; i >= 0; i-- {
		b.WriteString(strconv.Itoa(t.radix[i]))
		if i > 0 {
			b.WriteByte('x')
		}
	}
	b.WriteByte(')')
	return b.String()
}

// Nodes returns the total number of nodes.
func (t *Mixed) Nodes() int { return t.nodes }

// Degree returns the node degree, sum of (m_i - 1).
func (t *Mixed) Degree() int { return t.degree }

// Radix returns m_i.
func (t *Mixed) Radix(i int) int { return t.radix[i] }

// Contains reports whether a is a valid node.
func (t *Mixed) Contains(a NodeID) bool { return int(a) < t.nodes }

// Coord returns coordinate i of node a.
func (t *Mixed) Coord(a NodeID, i int) int {
	return (int(a) / t.stride[i]) % t.radix[i]
}

// CoordsInto appends all coordinates of node a to dst (dimension 0
// first) in one mixed-radix decomposition pass — n divmods total,
// against the 2n stride divisions of calling Coord per dimension. The
// dense-index accessor the flat SoA core uses when it needs a whole
// coordinate vector.
func (t *Mixed) CoordsInto(a NodeID, dst []int) []int {
	r := int(a)
	for _, m := range t.radix {
		dst = append(dst, r%m)
		r /= m
	}
	return dst
}

// Index converts a coordinate vector (dimension 0 first, as produced by
// CoordsInto) back to its dense node index.
func (t *Mixed) Index(coords []int) NodeID {
	id := 0
	for i, v := range coords {
		id += v * t.stride[i]
	}
	return NodeID(id)
}

// WithCoord returns a with coordinate i replaced by v.
func (t *Mixed) WithCoord(a NodeID, i, v int) NodeID {
	cur := t.Coord(a, i)
	return NodeID(int(a) + (v-cur)*t.stride[i])
}

// Toward returns a with coordinate i replaced by d's coordinate i.
func (t *Mixed) Toward(a, d NodeID, i int) NodeID {
	return t.WithCoord(a, i, t.Coord(d, i))
}

// Distance returns the number of coordinates in which a and b differ —
// the graph distance in a fault-free GH. Both addresses decompose in a
// single divmod walk, so the cost is one divmod per dimension per node.
func (t *Mixed) Distance(a, b NodeID) int {
	d := 0
	ra, rb := int(a), int(b)
	for _, m := range t.radix {
		if ra%m != rb%m {
			d++
		}
		ra /= m
		rb /= m
	}
	return d
}

// Adjacent reports whether a and b differ in exactly one coordinate.
func (t *Mixed) Adjacent(a, b NodeID) bool {
	if a == b {
		return false
	}
	diff := 0
	ra, rb := int(a), int(b)
	for _, m := range t.radix {
		if ra%m != rb%m {
			if diff++; diff > 1 {
				return false
			}
		}
		ra /= m
		rb /= m
	}
	return diff == 1
}

// LinkDim returns the dimension along which adjacent a and b differ.
func (t *Mixed) LinkDim(a, b NodeID) int {
	ra, rb := int(a), int(b)
	for i, m := range t.radix {
		if ra%m != rb%m {
			return i
		}
		ra /= m
		rb /= m
	}
	return -1
}

// Siblings appends the m_i - 1 neighbors of a along dimension i to dst
// in ascending coordinate order.
func (t *Mixed) Siblings(a NodeID, i int, dst []NodeID) []NodeID {
	cur := t.Coord(a, i)
	for v := 0; v < t.radix[i]; v++ {
		if v != cur {
			dst = append(dst, t.WithCoord(a, i, v))
		}
	}
	return dst
}

// Sibling returns the k-th neighbor of a along dimension i in ascending
// coordinate order: coordinate k below a's own, k+1 from it upward.
func (t *Mixed) Sibling(a NodeID, i, k int) NodeID {
	if k >= t.Coord(a, i) {
		k++
	}
	return t.WithCoord(a, i, k)
}

// Format renders a node as its digit string a_{n-1}...a_0, matching the
// paper's Fig. 5 notation (e.g. "021" in GH(2x3x2)). Radixes above 10
// fall back to dotted decimal.
func (t *Mixed) Format(a NodeID) string {
	var buf [64]byte
	return string(t.AppendFormat(buf[:0], a))
}

// AppendFormat appends Format(a) to dst and returns the extended slice;
// it allocates only when dst must grow.
func (t *Mixed) AppendFormat(dst []byte, a NodeID) []byte {
	for i := len(t.radix) - 1; i >= 0; i-- {
		if t.wide && i < len(t.radix)-1 {
			dst = append(dst, '.')
		}
		dst = strconv.AppendInt(dst, int64(t.Coord(a, i)), 10)
	}
	return dst
}

// Parse converts an address in Format's notation back into a NodeID:
// one digit per dimension, or, when some radix exceeds 10, one
// dot-separated decimal field per dimension. Every coordinate must be
// ASCII digits below its dimension's radix, written without leading
// zeros.
func (t *Mixed) Parse(s string) (NodeID, error) {
	sep := ""
	if t.wide {
		sep = "."
	}
	fields := strings.Split(s, sep)
	if len(fields) != len(t.radix) {
		return 0, fmt.Errorf("topo: address %q has %d coordinates, want %d", s, len(fields), len(t.radix))
	}
	var id int
	for pos, field := range fields {
		i := len(t.radix) - 1 - pos
		v, ok := coord(field, t.radix[i])
		if !ok {
			return 0, fmt.Errorf("topo: coordinate %q of %q is not below radix %d of dimension %d", field, s, t.radix[i], i)
		}
		id += v * t.stride[i]
	}
	return NodeID(id), nil
}

// coord reads field as a coordinate below radix: one or more ASCII
// digits, without the leading zeros Format never writes.
func coord(field string, radix int) (int, bool) {
	if field == "" || len(field) > 1 && field[0] == '0' {
		return 0, false
	}
	v := 0
	for i := 0; i < len(field); i++ {
		c := field[i]
		if c < '0' || c > '9' {
			return 0, false
		}
		if v = v*10 + int(c-'0'); v >= radix {
			return 0, false
		}
	}
	return v, true
}

// MustParse is Parse for fixtures; it panics on malformed addresses.
func (t *Mixed) MustParse(s string) NodeID {
	id, err := t.Parse(s)
	if err != nil {
		panic(err)
	}
	return id
}

// MustParseAll parses a list of addresses.
func (t *Mixed) MustParseAll(ss ...string) []NodeID {
	out := make([]NodeID, len(ss))
	for i, s := range ss {
		out[i] = t.MustParse(s)
	}
	return out
}
