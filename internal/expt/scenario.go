package expt

import (
	"repro/internal/faults"
	"repro/internal/topo"
)

// The canonical figure scenarios of the paper, shared by the harness,
// the CLI tools and the examples.

// Fig1Set returns the Fig. 1 cube: Q4 with faults 0011, 0100, 0110, 1001.
func Fig1Set() *faults.Set {
	c := topo.MustCube(4)
	s := faults.NewSet(c)
	mustFail(s, c, "0011", "0100", "0110", "1001")
	return s
}

// Fig3Set returns the Fig. 3 disconnected cube: Q4 with faults 0110,
// 1010, 1100, 1111 (node 1110 is cut off).
func Fig3Set() *faults.Set {
	c := topo.MustCube(4)
	s := faults.NewSet(c)
	mustFail(s, c, "0110", "1010", "1100", "1111")
	return s
}

// Fig4Set returns the Section 4.1 cube: Q4 with node faults 0000, 0100,
// 1100, 1110 and the faulty link (1000, 1001). The node-fault set is not
// spelled out in the text; this one reproduces every stated fact of
// Fig. 4 (see internal/core's egs tests).
func Fig4Set() *faults.Set {
	c := topo.MustCube(4)
	s := faults.NewSet(c)
	mustFail(s, c, "0000", "0100", "1100", "1110")
	if err := s.FailLink(c.MustParse("1000"), c.MustParse("1001")); err != nil {
		panic(err)
	}
	return s
}

// Fig5Set returns the Section 4.2 generalized hypercube GH(2x3x2) with
// faults 011, 100, 111, 121 — the fault set consistent with the
// figure's stated facts (four safe nodes, S(110) = 1, the worked route).
func Fig5Set() *faults.Set {
	m := topo.MustMixed(2, 3, 2)
	s := faults.NewSet(m)
	if err := s.FailNodes(m.MustParseAll("011", "100", "111", "121")...); err != nil {
		panic(err)
	}
	return s
}

// Section23Set returns the Section 2.3 comparison cube: Q4 with faults
// 0000, 0110, 1111.
func Section23Set() *faults.Set {
	c := topo.MustCube(4)
	s := faults.NewSet(c)
	mustFail(s, c, "0000", "0110", "1111")
	return s
}

// Property2Set returns the Property 2 example: Q4 with faults 0000,
// 0110, 1101.
func Property2Set() *faults.Set {
	c := topo.MustCube(4)
	s := faults.NewSet(c)
	mustFail(s, c, "0000", "0110", "1101")
	return s
}

func mustFail(s *faults.Set, c *topo.Cube, addrs ...string) {
	if err := s.FailNodes(c.MustParseAll(addrs...)...); err != nil {
		panic(err)
	}
}
