package bitset

import (
	"math/rand"
	"slices"
	"testing"
)

// TestTrackedMatchesSet drives a Tracked set and a plain Set with the
// same random Add/Remove/Flip stream, in rounds that end alternately in
// DrainInto and Reset, and requires identical membership, count and
// ascending order — and that draining or resetting leaves no stray
// word or summary bit behind.
func TestTrackedMatchesSet(t *testing.T) {
	for _, n := range []int{1, 63, 64, 200, 4096, 5000, 1 << 16} {
		tr := NewTracked(n)
		ref := New(n)
		rng := rand.New(rand.NewSource(int64(n)))
		for round := 0; round < 6; round++ {
			// Early rounds touch a handful of indices, later ones most
			// of the words.
			ops := 1 + rng.Intn(8<<round)
			for k := 0; k < ops; k++ {
				i := rng.Intn(n)
				switch rng.Intn(3) {
				case 0:
					tr.Add(i)
					ref.Add(i)
				case 1:
					tr.Remove(i)
					ref.Remove(i)
				case 2:
					tr.Flip(i)
					ref.Flip(i)
				}
				if tr.Test(i) != ref.Test(i) {
					t.Fatalf("n=%d: Test(%d) diverges", n, i)
				}
			}
			if tr.Count() != ref.Count() || tr.Any() != ref.Any() {
				t.Fatalf("n=%d round %d: Count/Any %d/%v, want %d/%v",
					n, round, tr.Count(), tr.Any(), ref.Count(), ref.Any())
			}
			want := ref.AppendIndices(nil)
			var walked []int32
			tr.ForEach(func(i int) { walked = append(walked, int32(i)) })
			if !slices.Equal(walked, want) {
				t.Fatalf("n=%d round %d: ForEach %v, want %v", n, round, walked, want)
			}
			if round%2 == 0 {
				if got := tr.DrainInto(nil); !slices.Equal(got, want) {
					t.Fatalf("n=%d round %d: DrainInto %v, want %v", n, round, got, want)
				}
			} else {
				tr.Reset()
			}
			ref.Reset()
			if tr.words.Any() || tr.sum.Any() {
				t.Fatalf("n=%d round %d: words or summary left set after clearing", n, round)
			}
		}
	}
}
