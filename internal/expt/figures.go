package expt

import (
	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/topo"
)

// Fig1 (E1) regenerates Fig. 1: the safety level of every node of the
// example four-cube, plus the paper's two worked unicasts.
func Fig1() *Table {
	s := Fig1Set()
	c := s.Cube()
	as := core.Compute(s, core.Options{})
	t := &Table{
		ID:     "E1",
		Title:  "Fig. 1 — safety levels in a 4-cube with faults {0011, 0100, 0110, 1001}",
		Header: []string{"node", "level", "status"},
	}
	for a := 0; a < c.Nodes(); a++ {
		id := topo.NodeID(a)
		status := "nonfaulty"
		if s.NodeFaulty(id) {
			status = "faulty"
		} else if as.Safe(id) {
			status = "safe"
		}
		t.AddRow(c.Format(id), as.Level(id), status)
	}
	t.Note("levels stabilized after %d rounds (paper: 2)", as.Rounds())

	rt := core.NewRouter(as, nil)
	r1 := rt.Unicast(c.MustParse("1110"), c.MustParse("0001"))
	t.Note("unicast 1110 -> 0001: %s via %s, path %s (paper: 1110 -> 1111 -> 1101 -> 0101 -> 0001)",
		r1.Outcome, r1.Condition, r1.Path.FormatWith(c))
	r2 := rt.Unicast(c.MustParse("0001"), c.MustParse("1100"))
	t.Note("unicast 0001 -> 1100: %s via %s, path %s (paper: 0001 -> 0000 -> 1000 -> 1100)",
		r2.Outcome, r2.Condition, r2.Path.FormatWith(c))
	return t
}

// Table1 (E3) regenerates the Section 2.3 three-way safe-set comparison
// on the example cube with faults {0000, 0110, 1111}.
func Table1() *Table {
	s := Section23Set()
	c := s.Cube()
	as := core.Compute(s, core.Options{})
	lh := baseline.LeeHayes(s)
	wf := baseline.WuFernandez(s)

	t := &Table{
		ID:     "E3",
		Title:  "Section 2.3 — safe node sets under the three definitions (Q4, faults {0000, 0110, 1111})",
		Header: []string{"definition", "safe nodes", "count", "rounds"},
	}
	t.AddRow("safety level (this paper)", formatNodes(c, as.SafeSet()), len(as.SafeSet()), as.Rounds())
	t.AddRow("Wu-Fernandez (Def. 3)", formatNodes(c, wf.SafeSet()), wf.SafeCount(), wf.Rounds())
	t.AddRow("Lee-Hayes (Def. 2)", formatNodes(c, lh.SafeSet()), lh.SafeCount(), lh.Rounds())
	t.Note("paper lists the WF set as the 9 safety-level nodes minus 1100; under the literal")
	t.Note("Definition 3 fixpoint 1100 is provably safe (its profile equals 0011/0101/1010's),")
	t.Note("so the measured WF set has 9 nodes — see EXPERIMENTS.md for the discrepancy analysis")
	return t
}

func formatNodes(c *topo.Cube, nodes []topo.NodeID) string {
	if len(nodes) == 0 {
		return "(empty)"
	}
	out := ""
	for i, a := range nodes {
		if i > 0 {
			out += " "
		}
		out += c.Format(a)
	}
	return out
}

// Fig3 (E5) regenerates the disconnected-cube walkthrough of Fig. 3.
func Fig3() *Table {
	s := Fig3Set()
	c := s.Cube()
	as := core.Compute(s, core.Options{})
	rt := core.NewRouter(as, nil)

	t := &Table{
		ID:     "E5",
		Title:  "Fig. 3 — unicasting in a disconnected 4-cube with faults {0110, 1010, 1100, 1111}",
		Header: []string{"source", "dest", "H", "S(src)", "condition", "outcome", "path"},
	}
	cases := [][2]string{
		{"0101", "0000"}, // paper: optimal, C1
		{"0111", "1011"}, // paper: optimal via preferred neighbor 0011, C2
		{"0111", "1110"}, // paper: aborted at the source
		{"1110", "0000"}, // island source: aborted
	}
	for _, cs := range cases {
		src, dst := c.MustParse(cs[0]), c.MustParse(cs[1])
		r := rt.Unicast(src, dst)
		path := "(aborted at source)"
		if r.Outcome != core.Failure {
			path = r.Path.FormatWith(c)
		}
		t.AddRow(cs[0], cs[1], r.Hamming, as.Level(src), r.Condition.String(), r.Outcome.String(), path)
	}
	_, comps := faults.Components(s)
	t.Note("surviving graph splits into %d components; island node 1110 is 1-safe", comps)
	t.Note("Lee-Hayes safe set size: %d, Wu-Fernandez: %d (Theorem 4: both empty)",
		baseline.LeeHayes(s).SafeCount(), baseline.WuFernandez(s).SafeCount())
	return t
}

// Fig4 (E8) regenerates the link-fault walkthrough of Section 4.1.
func Fig4() *Table {
	s := Fig4Set()
	c := s.Cube()
	as := core.Compute(s, core.Options{})

	t := &Table{
		ID:     "E8",
		Title:  "Fig. 4 — 4-cube with node faults {0000, 0100, 1100, 1110} and faulty link (1000, 1001)",
		Header: []string{"node", "public level", "own level", "class"},
	}
	for a := 0; a < c.Nodes(); a++ {
		id := topo.NodeID(a)
		class := "N1"
		switch {
		case s.NodeFaulty(id):
			class = "faulty"
		case len(s.AdjacentFaultyLinks(id)) > 0:
			class = "N2"
		}
		t.AddRow(c.Format(id), as.Level(id), as.OwnLevel(id), class)
	}
	rt := core.NewRouter(as, nil)
	r := rt.Unicast(c.MustParse("1101"), c.MustParse("1000"))
	t.Note("paper: S(1000)=1 and S(1001)=2 in their own view, 0 to everyone else — measured above")
	t.Note("unicast 1101 -> 1000 (H=2): %s, path %s (paper: 1101 -> 1111 -> 1011 -> 1010 -> 1000)",
		r.Outcome, r.Path.FormatWith(c))
	return t
}

// Fig5 (E9) regenerates the generalized-hypercube walkthrough of
// Section 4.2.
func Fig5() *Table {
	s := Fig5Set()
	m := s.Topology().(*topo.Mixed)
	as := core.Compute(s, core.Options{})

	t := &Table{
		ID:     "E9",
		Title:  "Fig. 5 — GH(2x3x2) with faults {011, 100, 111, 121}",
		Header: []string{"node", "level", "status"},
	}
	for a := 0; a < m.Nodes(); a++ {
		id := topo.NodeID(a)
		status := "nonfaulty"
		if s.NodeFaulty(id) {
			status = "faulty"
		} else if as.Level(id) == m.Dim() {
			status = "safe"
		}
		t.AddRow(m.Format(id), as.Level(id), status)
	}
	r := core.NewRouter(as, nil).Unicast(m.MustParse("010"), m.MustParse("101"))
	t.Note("safe nodes: %d (paper: four)", len(as.SafeSet()))
	t.Note("unicast 010 -> 101 (distance 3): %s via %s, path %s (paper: 010 -> 000 -> 001 -> 101)",
		r.Outcome, r.Condition, r.Path.FormatWith(m))
	return t
}
