package topo

import "testing"

// FuzzParse checks that Parse never panics, and that whatever it
// accepts round-trips through Format.
func FuzzParse(f *testing.F) {
	f.Add(4, "0110")
	f.Add(4, "1111")
	f.Add(4, "011")
	f.Add(4, "01102")
	f.Add(1, "0")
	f.Add(8, "10101010")
	f.Fuzz(func(t *testing.T, dim int, s string) {
		if dim < 1 || dim > MaxDim {
			return
		}
		c := MustCube(dim)
		id, err := c.Parse(s)
		if err != nil {
			return
		}
		if !c.Contains(id) {
			t.Fatalf("Parse(%q) = %d outside cube", s, id)
		}
		if got := c.Format(id); got != s {
			t.Fatalf("round-trip %q -> %d -> %q", s, id, got)
		}
	})
}

// FuzzNavVector checks navigation-vector algebra: flipping every
// preferred dimension of Nav(s, d) exactly once reaches zero.
func FuzzNavVector(f *testing.F) {
	f.Add(uint16(0b1110), uint16(0b0001))
	f.Add(uint16(0), uint16(0))
	f.Add(uint16(65535), uint16(0))
	f.Fuzz(func(t *testing.T, a, b uint16) {
		s, d := NodeID(a), NodeID(b)
		v := Nav(s, d)
		if v.Count() != Hamming(s, d) {
			t.Fatalf("Count %d != Hamming %d", v.Count(), Hamming(s, d))
		}
		for i := 0; i < 16; i++ {
			if v.Bit(i) {
				v = v.Flip(i)
			}
		}
		if !v.Zero() {
			t.Fatalf("clearing all preferred bits left %b", v)
		}
	})
}

// FuzzMixedParse checks, on generalized cubes of up to four dimensions
// with radixes 2 to 16, that Parse never panics and that whatever it
// accepts is a node of the cube that Format writes back unchanged.
func FuzzMixedParse(f *testing.F) {
	f.Add([]byte{1, 10}, "0.2")
	f.Add([]byte{1, 10}, "00.2")
	f.Add([]byte{7, 10, 12}, "0.0.00")
	f.Add([]byte{0, 1, 0}, "021")
	f.Add([]byte{2, 0, 3, 1}, "2130")
	f.Fuzz(func(t *testing.T, shape []byte, s string) {
		if len(shape) == 0 || len(shape) > 4 {
			return
		}
		radix := make([]int, len(shape))
		for i, b := range shape {
			radix[i] = 2 + int(b)%15
		}
		m := MustMixed(radix...)
		id, err := m.Parse(s)
		if err != nil {
			return
		}
		if !m.Contains(id) {
			t.Fatalf("%v: Parse(%q) = %d outside the cube", m, s, id)
		}
		if got := m.Format(id); got != s {
			t.Fatalf("%v: round trip %q -> %d -> %q", m, s, id, got)
		}
	})
}
