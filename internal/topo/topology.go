// Topology abstracts the structural interface that the safety-level
// machinery (faults, core, simnet) needs from a hypercube-like network:
// a fixed number of dimensions, a per-dimension sibling relation, and a
// distance that counts differing dimensions. The binary cube Q_n and the
// generalized hypercube GH(m_{n-1} x ... x m_0) of Section 4.2 are the
// two implementations; Definition 4 of the paper reduces each dimension
// to the minimum sibling level, which degenerates to Definition 1 when
// every radix is 2, so one generic algorithm serves both.
package topo

import "math/bits"

// Topology is a node-symmetric product graph: every node has a
// coordinate per dimension, and two nodes are adjacent exactly when
// they differ in a single coordinate ("siblings" along that dimension).
// In the binary cube each dimension holds one sibling; in a generalized
// hypercube the m_i-1 siblings of dimension i form a complete subgraph.
//
// Implementations must be immutable after construction: fault knowledge
// lives in package faults, levels in package core.
type Topology interface {
	// Dim returns the number of dimensions n.
	Dim() int
	// Nodes returns the number of nodes.
	Nodes() int
	// Degree returns the number of neighbors of every node,
	// sum over i of (Radix(i) - 1).
	Degree() int
	// Radix returns m_i, the number of coordinate values in dimension i.
	Radix(i int) int
	// Contains reports whether a is a valid node address.
	Contains(a NodeID) bool
	// Coord returns a's coordinate in dimension i, in [0, Radix(i)).
	Coord(a NodeID, i int) int
	// Toward returns the dimension-i neighbor of a whose coordinate in i
	// matches d's. If a and d agree in dimension i it returns a itself.
	Toward(a, d NodeID, i int) NodeID
	// Siblings appends a's neighbors along dimension i (ascending
	// coordinate order, excluding a itself) to dst and returns the
	// extended slice.
	Siblings(a NodeID, i int, dst []NodeID) []NodeID
	// Sibling returns the k-th of a's Radix(i)-1 neighbors along
	// dimension i, in the order Siblings lists them; it allocates
	// nothing.
	Sibling(a NodeID, i, k int) NodeID
	// Distance returns the number of dimensions in which a and b differ,
	// which is the graph distance in the fault-free topology.
	Distance(a, b NodeID) int
	// Adjacent reports whether a and b differ in exactly one dimension.
	Adjacent(a, b NodeID) bool
	// LinkDim returns the dimension along which adjacent nodes a and b
	// differ; the result is unspecified if they are not adjacent.
	LinkDim(a, b NodeID) int
	// Format renders a node address in the paper's figure notation.
	Format(a NodeID) string
	// AppendFormat appends Format(a) to dst and returns the extended
	// slice, allocating only when dst must grow.
	AppendFormat(dst []byte, a NodeID) []byte
	// Parse inverts Format.
	Parse(s string) (NodeID, error)
}

// Compile-time interface checks.
var (
	_ Topology = (*Cube)(nil)
	_ Topology = (*Mixed)(nil)
)

// NavIn returns the navigation vector of a unicast at a heading for b:
// bit i set means dimension i still has to be crossed. For the binary
// cube this is exactly a XOR b (Section 3.1); for a generalized cube it
// is the set of differing coordinates. Dimensions are capped at MaxDim,
// so the mask always fits a NavVector.
func NavIn(t Topology, a, b NodeID) NavVector {
	if _, ok := t.(*Cube); ok {
		return Nav(a, b)
	}
	if m, ok := t.(*Mixed); ok {
		// Single-pass mixed-radix decomposition of both addresses.
		var v NavVector
		ra, rb := int(a), int(b)
		for i, rad := range m.radix {
			if ra%rad != rb%rad {
				v |= 1 << uint(i)
			}
			ra /= rad
			rb /= rad
		}
		return v
	}
	var v NavVector
	for i := 0; i < t.Dim(); i++ {
		if t.Coord(a, i) != t.Coord(b, i) {
			v |= 1 << uint(i)
		}
	}
	return v
}

// Degree returns the binary cube's node degree, n.
func (c *Cube) Degree() int { return c.dim }

// Radix returns 2 for every dimension of a binary cube.
func (c *Cube) Radix(i int) int { return 2 }

// Coord returns bit i of a.
func (c *Cube) Coord(a NodeID, i int) int { return int(a>>uint(i)) & 1 }

// Toward returns a with bit i replaced by d's bit i.
func (c *Cube) Toward(a, d NodeID, i int) NodeID {
	return a ^ ((a ^ d) & (1 << uint(i)))
}

// Siblings appends a's single dimension-i neighbor, a XOR e^i.
func (c *Cube) Siblings(a NodeID, i int, dst []NodeID) []NodeID {
	return append(dst, a^(1<<uint(i)))
}

// Sibling returns a's single dimension-i neighbor, a XOR e^i.
func (c *Cube) Sibling(a NodeID, i, k int) NodeID { return a ^ (1 << uint(i)) }

// Distance returns the Hamming distance between a and b.
func (c *Cube) Distance(a, b NodeID) int { return Hamming(a, b) }

// LinkDim returns the dimension of the edge joining adjacent a and b.
func (c *Cube) LinkDim(a, b NodeID) int {
	return bits.TrailingZeros32(uint32(a ^ b))
}
