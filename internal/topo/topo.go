package topo

import (
	"fmt"
	"math/bits"
	"strconv"
	"strings"
)

// MaxDim is the largest supported cube dimension. 2^20 nodes is far past
// anything the paper evaluates (it uses n = 4 and n = 7) while keeping
// every node table comfortably in memory.
const MaxDim = 20

// NodeID identifies a hypercube node by its binary address.
type NodeID uint32

// Cube describes an n-dimensional binary hypercube.
type Cube struct {
	dim int
}

// NewCube returns the n-dimensional hypercube Q_n.
// It returns an error if n is outside [1, MaxDim].
func NewCube(n int) (*Cube, error) {
	if n < 1 || n > MaxDim {
		return nil, fmt.Errorf("topo: dimension %d outside [1, %d]", n, MaxDim)
	}
	return &Cube{dim: n}, nil
}

// MustCube is NewCube for callers with a compile-time-constant dimension;
// it panics on an invalid dimension.
func MustCube(n int) *Cube {
	c, err := NewCube(n)
	if err != nil {
		panic(err)
	}
	return c
}

// Dim returns the cube dimension n.
func (c *Cube) Dim() int { return c.dim }

// String renders the topology name ("Q4").
func (c *Cube) String() string { return fmt.Sprintf("Q%d", c.dim) }

// Nodes returns the number of nodes, 2^n.
func (c *Cube) Nodes() int { return 1 << uint(c.dim) }

// Links returns the number of undirected links, n * 2^(n-1).
func (c *Cube) Links() int { return c.dim << uint(c.dim-1) }

// Contains reports whether a is a valid node address in this cube.
func (c *Cube) Contains(a NodeID) bool { return int(a) < c.Nodes() }

// Neighbor returns a's neighbor along dimension i: a XOR e^i.
// It panics if i is not a valid dimension, because a bad dimension is
// always a programming error rather than an input condition.
func (c *Cube) Neighbor(a NodeID, i int) NodeID {
	if i < 0 || i >= c.dim {
		panic(fmt.Sprintf("topo: dimension %d outside cube of dim %d", i, c.dim))
	}
	return a ^ (1 << uint(i))
}

// Neighbors appends all n neighbors of a (dimension order 0..n-1) to dst
// and returns the extended slice. Pass a reusable slice to avoid
// allocation in hot loops.
func (c *Cube) Neighbors(a NodeID, dst []NodeID) []NodeID {
	for i := 0; i < c.dim; i++ {
		dst = append(dst, a^(1<<uint(i)))
	}
	return dst
}

// Adjacent reports whether a and b are joined by a hypercube edge.
func (c *Cube) Adjacent(a, b NodeID) bool {
	return bits.OnesCount32(uint32(a^b)) == 1
}

// Hamming returns H(a, b): the number of bit positions in which the
// addresses differ, which equals the graph distance in a fault-free cube.
func Hamming(a, b NodeID) int {
	return bits.OnesCount32(uint32(a ^ b))
}

// Weight returns the number of one bits in the address of a (its "level"
// in the proof of Theorem 4).
func Weight(a NodeID) int { return bits.OnesCount32(uint32(a)) }

// NavVector is the navigation vector N = s XOR d carried with a unicast
// message (Section 3.1). Bit i set means dimension i still has to be
// crossed. A zero vector means the message has arrived.
type NavVector uint32

// Nav returns the navigation vector between s and d.
func Nav(s, d NodeID) NavVector { return NavVector(s ^ d) }

// Zero reports whether no dimensions remain to be crossed.
func (v NavVector) Zero() bool { return v == 0 }

// Bit reports whether dimension i is a preferred dimension under v.
func (v NavVector) Bit(i int) bool { return v&(1<<uint(i)) != 0 }

// Flip returns v with bit i toggled: resetting a preferred dimension
// after crossing it, or setting a spare dimension on a detour hop.
func (v NavVector) Flip(i int) NavVector { return v ^ (1 << uint(i)) }

// Count returns the number of remaining preferred dimensions, i.e. the
// Hamming distance still to cover.
func (v NavVector) Count() int { return bits.OnesCount32(uint32(v)) }

// Preferred appends the preferred dimensions (those with bit set,
// ascending) to dst and returns the extended slice.
func (v NavVector) Preferred(dim int, dst []int) []int {
	for i := 0; i < dim; i++ {
		if v.Bit(i) {
			dst = append(dst, i)
		}
	}
	return dst
}

// Spare appends the spare dimensions (bit clear, ascending) to dst and
// returns the extended slice.
func (v NavVector) Spare(dim int, dst []int) []int {
	for i := 0; i < dim; i++ {
		if !v.Bit(i) {
			dst = append(dst, i)
		}
	}
	return dst
}

// PreferredDims returns the preferred dimensions of a unicast from s to
// d, ascending. Equivalent to Nav(s, d).Preferred.
func (c *Cube) PreferredDims(s, d NodeID) []int {
	return Nav(s, d).Preferred(c.dim, nil)
}

// SpareDims returns the spare dimensions of a unicast from s to d.
func (c *Cube) SpareDims(s, d NodeID) []int {
	return Nav(s, d).Spare(c.dim, nil)
}

// Format renders a node address as an n-bit binary string, matching the
// notation used in the paper's figures (e.g. node 3 in Q4 is "0011").
func (c *Cube) Format(a NodeID) string {
	var buf [32]byte
	return string(c.AppendFormat(buf[:0], a))
}

// AppendFormat appends Format(a) to dst and returns the extended slice;
// it allocates only when dst must grow. An address wider than n bits
// (outside the cube) is written in full.
func (c *Cube) AppendFormat(dst []byte, a NodeID) []byte {
	for i := max(c.dim, bits.Len32(uint32(a))) - 1; i >= 0; i-- {
		dst = append(dst, '0'+byte(a>>uint(i)&1))
	}
	return dst
}

// Parse converts an n-bit binary string (as printed in the paper's
// figures) back into a NodeID.
func (c *Cube) Parse(s string) (NodeID, error) {
	if len(s) != c.dim {
		return 0, fmt.Errorf("topo: address %q has %d bits, want %d", s, len(s), c.dim)
	}
	v, err := strconv.ParseUint(s, 2, 32)
	if err != nil {
		return 0, fmt.Errorf("topo: bad address %q: %v", s, err)
	}
	return NodeID(v), nil
}

// MustParse is Parse for test fixtures and figure scenarios; it panics on
// malformed addresses.
func (c *Cube) MustParse(s string) NodeID {
	id, err := c.Parse(s)
	if err != nil {
		panic(err)
	}
	return id
}

// MustParseAll parses a list of binary addresses.
func (c *Cube) MustParseAll(ss ...string) []NodeID {
	out := make([]NodeID, len(ss))
	for i, s := range ss {
		out[i] = c.MustParse(s)
	}
	return out
}

// Path is a sequence of node addresses where consecutive entries are
// adjacent. It records the route a unicast message traveled.
type Path []NodeID

// Len returns the number of hops (edges), not nodes.
func (p Path) Len() int {
	if len(p) == 0 {
		return 0
	}
	return len(p) - 1
}

// Valid reports whether p is a walk in the topology: non-empty and each
// consecutive pair adjacent.
func (p Path) Valid(c Topology) bool {
	if len(p) == 0 {
		return false
	}
	for _, a := range p {
		if !c.Contains(a) {
			return false
		}
	}
	for i := 1; i < len(p); i++ {
		if !c.Adjacent(p[i-1], p[i]) {
			return false
		}
	}
	return true
}

// Simple reports whether no node repeats on the path.
func (p Path) Simple() bool {
	seen := make(map[NodeID]bool, len(p))
	for _, a := range p {
		if seen[a] {
			return false
		}
		seen[a] = true
	}
	return true
}

// FormatWith renders the path in figure notation: "0001 -> 0000 -> 1000".
func (p Path) FormatWith(c Topology) string {
	parts := make([]string, len(p))
	for i, a := range p {
		parts[i] = c.Format(a)
	}
	return strings.Join(parts, " -> ")
}

// GrayPath returns a Hamming-distance path from s to d crossing the
// preferred dimensions in ascending order. This is the canonical optimal
// path in a fault-free cube, used as a reference in tests.
func (c *Cube) GrayPath(s, d NodeID) Path {
	p := Path{s}
	cur := s
	for i := 0; i < c.dim; i++ {
		if Nav(cur, d).Bit(i) {
			cur = c.Neighbor(cur, i)
			p = append(p, cur)
		}
	}
	return p
}

// SubcubeNodes returns all nodes matching a mask pattern: bits in fixed
// are frozen to the corresponding bit of value; the rest vary. It is used
// by the fault injectors to build clustered (subcube) fault sets.
func (c *Cube) SubcubeNodes(value NodeID, fixed NodeID) []NodeID {
	freeDims := make([]int, 0, c.dim)
	for i := 0; i < c.dim; i++ {
		if fixed&(1<<uint(i)) == 0 {
			freeDims = append(freeDims, i)
		}
	}
	base := value & fixed
	out := make([]NodeID, 0, 1<<uint(len(freeDims)))
	for m := 0; m < 1<<uint(len(freeDims)); m++ {
		a := base
		for j, dim := range freeDims {
			if m&(1<<uint(j)) != 0 {
				a |= 1 << uint(dim)
			}
		}
		out = append(out, a)
	}
	return out
}
