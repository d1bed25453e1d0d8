// Package bitset provides the word-addressed bit sets the flat
// structure-of-arrays core is built on: dense node-indexed membership
// sets (faulty, N2, clamp, dirty, affected) stored as []uint64 words
// instead of map[int]bool. A set over Q20's 1,048,576 nodes costs 128
// KiB of contiguous memory, clones with one copy, and iterates in
// ascending index order by construction — the property the
// deterministic sweep and repair schedules depend on. Tracked adds a
// summary of the nonzero words, for sets that are cleared and scanned
// far more often than they are filled.
package bitset

import "math/bits"

// Set is a fixed-capacity bit set addressed by dense non-negative
// indices. The zero value is an empty set of capacity 0; construct with
// New. Methods never grow the set: indexing past the capacity given to
// New is a programming error and panics like any slice overrun.
type Set []uint64

// New returns an empty set with capacity for indices [0, n).
func New(n int) Set { return make(Set, (n+63)>>6) }

// Test reports whether index i is a member.
func (s Set) Test(i int) bool { return s[i>>6]&(1<<(uint(i)&63)) != 0 }

// Add inserts index i.
func (s Set) Add(i int) { s[i>>6] |= 1 << (uint(i) & 63) }

// Remove deletes index i.
func (s Set) Remove(i int) { s[i>>6] &^= 1 << (uint(i) & 63) }

// Flip toggles index i's membership.
func (s Set) Flip(i int) { s[i>>6] ^= 1 << (uint(i) & 63) }

// Reset empties the set in place, keeping its capacity.
func (s Set) Reset() {
	for i := range s {
		s[i] = 0
	}
}

// Any reports whether the set has at least one member.
func (s Set) Any() bool {
	for _, w := range s {
		if w != 0 {
			return true
		}
	}
	return false
}

// Count returns the number of members.
func (s Set) Count() int {
	n := 0
	for _, w := range s {
		n += bits.OnesCount64(w)
	}
	return n
}

// Clone returns an independent copy (one memcpy).
func (s Set) Clone() Set { return append(Set(nil), s...) }

// CopyFrom overwrites s with src; both must come from the same New(n).
func (s Set) CopyFrom(src Set) { copy(s, src) }

// AppendIndices appends the members in ascending order to dst and
// returns the extended slice. Indices are emitted as int32 — the dense
// node-index type of the flat core (topologies are capped well below
// 2^31 nodes).
func (s Set) AppendIndices(dst []int32) []int32 {
	for wi, w := range s {
		base := int32(wi << 6)
		for w != 0 {
			dst = append(dst, base+int32(bits.TrailingZeros64(w)))
			w &= w - 1
		}
	}
	return dst
}

// ForEach calls fn for every member in ascending order.
func (s Set) ForEach(fn func(i int)) {
	for wi, w := range s {
		base := wi << 6
		for w != 0 {
			fn(base + bits.TrailingZeros64(w))
			w &= w - 1
		}
	}
}

// DrainInto appends the members in ascending order to dst, clears the
// set, and returns the extended slice: marks accumulated during one
// round become the next round's work list in one pass, leaving the set
// empty for reuse. Tracked.DrainInto does the same in time proportional
// to the words touched.
func (s Set) DrainInto(dst []int32) []int32 {
	for wi, w := range s {
		if w == 0 {
			continue
		}
		s[wi] = 0
		base := int32(wi << 6)
		for w != 0 {
			dst = append(dst, base+int32(bits.TrailingZeros64(w)))
			w &= w - 1
		}
	}
	return dst
}
