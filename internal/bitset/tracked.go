package bitset

import "math/bits"

// Tracked is a Set that also keeps a summary Set with one bit per word:
// summary bit w is set once word w may hold a member. Iteration,
// draining, counting and clearing visit only the summarized words, so
// their cost follows the words a run touched (plus one summary word per
// 4096 indices), not the capacity. The frontier engine's scratch sets
// are Tracked: a single-fault repair on Q20 touches a few dozen of each
// set's 16,384 words, and clearing or scanning all of them used to be
// most of its work. Iteration stays in ascending index order.
type Tracked struct {
	words Set
	sum   Set
}

// NewTracked returns an empty tracked set with capacity for indices
// [0, n).
func NewTracked(n int) Tracked {
	w := New(n)
	return Tracked{words: w, sum: New(len(w))}
}

// Test reports whether index i is a member.
func (t Tracked) Test(i int) bool { return t.words.Test(i) }

// Add inserts index i.
func (t Tracked) Add(i int) {
	t.words.Add(i)
	t.sum.Add(i >> 6)
}

// Remove deletes index i. The word's summary bit stays set; scans skip
// words that turn out empty.
func (t Tracked) Remove(i int) { t.words.Remove(i) }

// Flip toggles index i's membership.
func (t Tracked) Flip(i int) {
	t.words.Flip(i)
	t.sum.Add(i >> 6)
}

// ForEach calls fn for every member in ascending order.
func (t Tracked) ForEach(fn func(i int)) {
	for si, s := range t.sum {
		for ; s != 0; s &= s - 1 {
			wi := si<<6 + bits.TrailingZeros64(s)
			base := wi << 6
			for w := t.words[wi]; w != 0; w &= w - 1 {
				fn(base + bits.TrailingZeros64(w))
			}
		}
	}
}

// Any reports whether the set has at least one member.
func (t Tracked) Any() bool {
	for si, s := range t.sum {
		for ; s != 0; s &= s - 1 {
			if t.words[si<<6+bits.TrailingZeros64(s)] != 0 {
				return true
			}
		}
	}
	return false
}

// Count returns the number of members.
func (t Tracked) Count() int {
	n := 0
	for si, s := range t.sum {
		for ; s != 0; s &= s - 1 {
			n += bits.OnesCount64(t.words[si<<6+bits.TrailingZeros64(s)])
		}
	}
	return n
}

// DrainInto appends the members in ascending order to dst, empties the
// set and returns the extended slice (see Set.DrainInto).
func (t Tracked) DrainInto(dst []int32) []int32 {
	for si, s := range t.sum {
		if s == 0 {
			continue
		}
		t.sum[si] = 0
		for ; s != 0; s &= s - 1 {
			wi := si<<6 + bits.TrailingZeros64(s)
			base := int32(wi << 6)
			for w := t.words[wi]; w != 0; w &= w - 1 {
				dst = append(dst, base+int32(bits.TrailingZeros64(w)))
			}
			t.words[wi] = 0
		}
	}
	return dst
}

// Reset empties the set in place, clearing only the summarized words.
func (t Tracked) Reset() {
	for si, s := range t.sum {
		if s == 0 {
			continue
		}
		t.sum[si] = 0
		for ; s != 0; s &= s - 1 {
			t.words[si<<6+bits.TrailingZeros64(s)] = 0
		}
	}
}
