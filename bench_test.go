package safecube

// One benchmark per reproduced table/figure (DESIGN.md experiment
// index E1–E14), plus scaling micro-benchmarks for the core
// primitives. Regenerate the recorded numbers with:
//
//	go test -bench=. -benchmem .

import (
	"testing"

	"repro/internal/baseline"
	"repro/internal/broadcast"
	"repro/internal/core"
	"repro/internal/expt"
	"repro/internal/faults"
	"repro/internal/simnet"
	"repro/internal/stats"
	"repro/internal/topo"
)

// BenchmarkFig1SafetyLevels (E1): GS fixpoint on the Fig. 1 cube.
func BenchmarkFig1SafetyLevels(b *testing.B) {
	s := expt.Fig1Set()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		as := core.Compute(s, core.Options{})
		if as.Rounds() != 2 {
			b.Fatal("unexpected rounds")
		}
	}
}

// BenchmarkFig2Rounds (E2): GS convergence on seven-cubes across the
// figure's fault axis.
func BenchmarkFig2Rounds(b *testing.B) {
	for _, f := range []int{0, 6, 16, 32} {
		b.Run(benchName("faults", f), func(b *testing.B) {
			c := topo.MustCube(7)
			rng := stats.NewRNG(uint64(f) + 1)
			sets := make([]*faults.Set, 16)
			for i := range sets {
				sets[i] = faults.NewSet(c)
				if err := faults.InjectUniform(sets[i], rng, f); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				core.Compute(sets[i%len(sets)], core.Options{})
			}
		})
	}
}

// BenchmarkTable1SafeSets (E3): the three status fixpoints on the
// Section 2.3 comparison cube.
func BenchmarkTable1SafeSets(b *testing.B) {
	s := expt.Section23Set()
	b.Run("safety-level", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			core.Compute(s, core.Options{})
		}
	})
	b.Run("wu-fernandez", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			baseline.WuFernandez(s)
		}
	})
	b.Run("lee-hayes", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			baseline.LeeHayes(s)
		}
	})
}

// BenchmarkRoundsComparison (E4): status identification cost on a
// heavily-faulted 8-cube, GS vs. the binary definitions.
func BenchmarkRoundsComparison(b *testing.B) {
	c := topo.MustCube(8)
	rng := stats.NewRNG(44)
	s := faults.NewSet(c)
	if err := faults.InjectClustered(s, rng, 24, 4); err != nil {
		b.Fatal(err)
	}
	b.Run("gs", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			core.Compute(s, core.Options{})
		}
	})
	b.Run("lee-hayes", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			baseline.LeeHayes(s)
		}
	})
	b.Run("wu-fernandez", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			baseline.WuFernandez(s)
		}
	})
}

// BenchmarkFig3Disconnected (E5): admission checks and routing in the
// disconnected Fig. 3 cube.
func BenchmarkFig3Disconnected(b *testing.B) {
	s := expt.Fig3Set()
	c := s.Cube()
	rt := core.NewRouter(core.Compute(s, core.Options{}), nil)
	src, in := c.MustParse("0101"), c.MustParse("0000")
	island := c.MustParse("1110")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if r := rt.Unicast(src, in); r.Outcome != core.Optimal {
			b.Fatal("in-component route should be optimal")
		}
		if r := rt.Unicast(src, island); r.Outcome != core.Failure {
			b.Fatal("cross-partition route should fail")
		}
	}
}

// BenchmarkGuarantee (E6): full compute+route cycle on 8-cubes with
// n-1 faults (the guarantee boundary).
func BenchmarkGuarantee(b *testing.B) {
	c := topo.MustCube(8)
	rng := stats.NewRNG(66)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := faults.NewSet(c)
		if err := faults.InjectUniform(s, rng, 7); err != nil {
			b.Fatal(err)
		}
		rt := core.NewRouter(core.Compute(s, core.Options{}), nil)
		src := topo.NodeID(rng.Intn(c.Nodes()))
		dst := topo.NodeID(rng.Intn(c.Nodes()))
		if s.NodeFaulty(src) || s.NodeFaulty(dst) {
			continue
		}
		if r := rt.Unicast(src, dst); r.Outcome == core.Failure {
			b.Fatal("guarantee violated below n faults")
		}
	}
}

// BenchmarkTheorem4 (E7): disconnected-cube construction plus the
// emptiness checks of both binary safe sets.
func BenchmarkTheorem4(b *testing.B) {
	c := topo.MustCube(6)
	rng := stats.NewRNG(77)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := faults.NewSet(c)
		if err := faults.InjectIsolating(s, topo.NodeID(rng.Intn(c.Nodes()))); err != nil {
			b.Fatal(err)
		}
		if baseline.LeeHayes(s).SafeCount() != 0 || baseline.WuFernandez(s).SafeCount() != 0 {
			b.Fatal("Theorem 4 violated")
		}
	}
}

// BenchmarkFig4LinkFaults (E8): EGS fixpoint plus the suboptimal route
// of the Section 4.1 scenario.
func BenchmarkFig4LinkFaults(b *testing.B) {
	s := expt.Fig4Set()
	c := s.Cube()
	src, dst := c.MustParse("1101"), c.MustParse("1000")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rt := core.NewRouter(core.Compute(s, core.Options{}), nil)
		if r := rt.Unicast(src, dst); r.Outcome != core.Suboptimal {
			b.Fatal("route should be suboptimal")
		}
	}
}

// BenchmarkFig5Generalized (E9): Definition 4 fixpoint plus the worked
// route in GH(2x3x2).
func BenchmarkFig5Generalized(b *testing.B) {
	s := expt.Fig5Set()
	m := s.Topology().(*topo.Mixed)
	src, dst := m.MustParse("010"), m.MustParse("101")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rt := core.NewRouter(core.Compute(s, core.Options{}), nil)
		if r := rt.Unicast(src, dst); r.Outcome != core.Optimal {
			b.Fatal("route should be optimal")
		}
	}
}

// BenchmarkCompareRouters (E10): one routed unicast per scheme on a
// fixed 7-cube with 12 faults.
func BenchmarkCompareRouters(b *testing.B) {
	c := topo.MustCube(7)
	rng := stats.NewRNG(1010)
	s := faults.NewSet(c)
	if err := faults.InjectUniform(s, rng, 12); err != nil {
		b.Fatal(err)
	}
	var pairs []struct{ s, d topo.NodeID }
	for len(pairs) < 64 {
		src := topo.NodeID(rng.Intn(c.Nodes()))
		dst := topo.NodeID(rng.Intn(c.Nodes()))
		if s.NodeFaulty(src) || s.NodeFaulty(dst) || src == dst {
			continue
		}
		pairs = append(pairs, struct{ s, d topo.NodeID }{src, dst})
	}
	b.Run("safety-level", func(b *testing.B) {
		rt := core.NewRouter(core.Compute(s, core.Options{}), nil)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p := pairs[i%len(pairs)]
			rt.Unicast(p.s, p.d)
		}
	})
	for _, mk := range []func() baseline.Router{
		func() baseline.Router { return baseline.NewLeeHayesRouter(s) },
		func() baseline.Router { return baseline.NewChiuWuRouter(s) },
		func() baseline.Router { return baseline.NewDFSRouter(s) },
		func() baseline.Router { return baseline.NewSidetrackRouter(s, stats.NewRNG(2)) },
		func() baseline.Router { return baseline.NewFreeDimRouter(s) },
		func() baseline.Router { return baseline.NewOracleRouter(s) },
	} {
		rt := mk()
		b.Run(rt.Name(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				p := pairs[i%len(pairs)]
				rt.Route(p.s, p.d)
			}
		})
	}
}

// BenchmarkDistributedGS (E11): the goroutine-per-node GS protocol,
// including engine start/stop, across cube sizes.
func BenchmarkDistributedGS(b *testing.B) {
	for _, n := range []int{4, 6, 8} {
		b.Run(benchName("n", n), func(b *testing.B) {
			c := topo.MustCube(n)
			rng := stats.NewRNG(uint64(n))
			s := faults.NewSet(c)
			if err := faults.InjectUniform(s, rng, n-1); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e := simnet.New(s)
				e.RunGS(0)
				e.Close()
			}
		})
	}
}

// BenchmarkAblations (E12): the tie-break policies head to head on one
// route, isolating the policy cost.
func BenchmarkAblations(b *testing.B) {
	s := expt.Fig1Set()
	c := s.Cube()
	as := core.Compute(s, core.Options{})
	src, dst := c.MustParse("1110"), c.MustParse("0001")
	b.Run("lowest-dim", func(b *testing.B) {
		rt := core.NewRouter(as, core.LowestDim)
		for i := 0; i < b.N; i++ {
			rt.Unicast(src, dst)
		}
	})
	b.Run("highest-dim", func(b *testing.B) {
		rt := core.NewRouter(as, core.HighestDim)
		for i := 0; i < b.N; i++ {
			rt.Unicast(src, dst)
		}
	})
}

// ---------------------------------------------------------------------
// Scaling micro-benchmarks for the core primitives.
// ---------------------------------------------------------------------

// BenchmarkGSByDimension: sequential GS cost as the cube grows (with
// n-1 random faults each).
func BenchmarkGSByDimension(b *testing.B) {
	for _, n := range []int{6, 8, 10, 12} {
		b.Run(benchName("n", n), func(b *testing.B) {
			c := topo.MustCube(n)
			rng := stats.NewRNG(uint64(n) * 31)
			s := faults.NewSet(c)
			if err := faults.InjectUniform(s, rng, n-1); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				core.Compute(s, core.Options{})
			}
		})
	}
}

// BenchmarkUnicastByDimension: routing cost alone (levels precomputed).
func BenchmarkUnicastByDimension(b *testing.B) {
	for _, n := range []int{6, 8, 10, 12} {
		b.Run(benchName("n", n), func(b *testing.B) {
			c := topo.MustCube(n)
			rng := stats.NewRNG(uint64(n) * 17)
			s := faults.NewSet(c)
			if err := faults.InjectUniform(s, rng, n-1); err != nil {
				b.Fatal(err)
			}
			rt := core.NewRouter(core.Compute(s, core.Options{}), nil)
			src := topo.NodeID(0)
			dst := topo.NodeID(c.Nodes() - 1)
			for s.NodeFaulty(src) {
				src++
			}
			for s.NodeFaulty(dst) {
				dst--
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rt.Unicast(src, dst)
			}
		})
	}
}

// BenchmarkLevelFromNeighbors: the Definition 1 evaluation primitive.
func BenchmarkLevelFromNeighbors(b *testing.B) {
	levels := []int{4, 0, 7, 3, 2, 9, 1, 5, 6, 8}
	scratch := make([]int, len(levels))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		core.LevelFromNeighbors(levels, scratch)
	}
}

// BenchmarkFacadeUnicast: the public API path, including the level
// cache.
func BenchmarkFacadeUnicast(b *testing.B) {
	cube := MustNew(8)
	if err := cube.InjectRandomFaults(8, 7); err != nil {
		b.Fatal(err)
	}
	cube.ComputeLevels()
	src, dst := NodeID(1), NodeID(254)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cube.Unicast(src, dst)
	}
}

func benchName(k string, v int) string {
	return k + "=" + itoa(v)
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

// BenchmarkBroadcast (E13): the safety-level broadcast extension — tree
// construction plus repair on a 7-cube with n-1 faults.
func BenchmarkBroadcast(b *testing.B) {
	c := topo.MustCube(7)
	rng := stats.NewRNG(13)
	s := faults.NewSet(c)
	if err := faults.InjectUniform(s, rng, 6); err != nil {
		b.Fatal(err)
	}
	as := core.Compute(s, core.Options{})
	var src topo.NodeID
	for s.NodeFaulty(src) {
		src++
	}
	bc := broadcast.New(as, true)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := bc.Broadcast(src)
		if !res.Covered() {
			b.Fatal("broadcast did not cover below n faults")
		}
	}
}

// BenchmarkTraffic (E14): a full concurrent permutation batch through
// the distributed engine on a 6-cube.
func BenchmarkTraffic(b *testing.B) {
	c := topo.MustCube(6)
	rng := stats.NewRNG(14)
	s := faults.NewSet(c)
	if err := faults.InjectUniform(s, rng, 5); err != nil {
		b.Fatal(err)
	}
	e := simnet.New(s)
	defer e.Close()
	e.RunGS(0)
	var pairs []simnet.Pair
	for a := 0; a < c.Nodes() && len(pairs) < e.MaxBatch(); a++ {
		src, dst := topo.NodeID(a), topo.NodeID((a*29+17)%c.Nodes())
		if s.NodeFaulty(src) || s.NodeFaulty(dst) || src == dst {
			continue
		}
		pairs = append(pairs, simnet.Pair{Src: src, Dst: dst})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.UnicastBatch(pairs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAsyncGS (E11b): the quiescence-driven distributed protocol,
// including engine start/stop.
func BenchmarkAsyncGS(b *testing.B) {
	for _, n := range []int{4, 6, 8} {
		b.Run(benchName("n", n), func(b *testing.B) {
			c := topo.MustCube(n)
			rng := stats.NewRNG(uint64(n) * 7)
			s := faults.NewSet(c)
			if err := faults.InjectUniform(s, rng, n-1); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e := simnet.New(s)
				e.RunGSAsync()
				e.Close()
			}
		})
	}
}

// BenchmarkSessionReroute: the mid-flight blockage + recompute +
// reroute cycle of the demand-driven scenario.
func BenchmarkSessionReroute(b *testing.B) {
	c := topo.MustCube(5)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := faults.NewSet(c)
		rt := core.NewRouter(core.Compute(s, core.Options{}), nil)
		sess, _, _ := rt.Start(c.MustParse("00000"), c.MustParse("00111"))
		sess.Step()
		s.FailNode(c.MustParse("00011"))
		s.FailNode(c.MustParse("00101"))
		if _, err := sess.Step(); err != core.ErrBlocked {
			b.Fatal("expected blockage")
		}
		if _, out := sess.Reroute(core.Compute(s, core.Options{})); out == core.Failure {
			b.Fatal("reroute failed")
		}
		if ok, err := sess.Run(); !ok || err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGHByShape: Definition 4 fixpoints across generalized
// hypercube shapes of comparable size.
func BenchmarkGHByShape(b *testing.B) {
	shapes := [][]int{
		{2, 2, 2, 2, 2, 2}, // 64 nodes, binary
		{4, 4, 4},          // 64 nodes, radix 4
		{8, 8},             // 64 nodes, radix 8
	}
	for _, shape := range shapes {
		name := ""
		for i, m := range shape {
			if i > 0 {
				name += "x"
			}
			name += itoa(m)
		}
		b.Run(name, func(b *testing.B) {
			rng := stats.NewRNG(99)
			s := faults.NewSet(topo.MustMixed(shape...))
			if err := faults.InjectUniform(s, rng, 5); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				core.Compute(s, core.Options{})
			}
		})
	}
}

// BenchmarkDistributedBroadcast: the level-ranked tree through the
// goroutine engine on a 7-cube.
func BenchmarkDistributedBroadcast(b *testing.B) {
	c := topo.MustCube(7)
	rng := stats.NewRNG(21)
	s := faults.NewSet(c)
	if err := faults.InjectUniform(s, rng, 6); err != nil {
		b.Fatal(err)
	}
	e := simnet.New(s)
	defer e.Close()
	e.RunGS(0)
	var src topo.NodeID
	for s.NodeFaulty(src) {
		src++
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Broadcast(src); err != nil {
			b.Fatal(err)
		}
	}
}

// newOverheadCube builds the BENCH_1 configuration: a 10-cube with 10%
// (102) random node faults, instrumented or not.
func newOverheadCube(b testing.TB, reg *Registry) (*Cube, NodeID, NodeID) {
	b.Helper()
	c := MustNew(10)
	if err := c.InjectRandomFaults(10, 102); err != nil {
		b.Fatal(err)
	}
	c.Instrument(reg)
	c.ComputeLevels()
	src, dst := NodeID(0), NodeID(c.Nodes()-1)
	for c.NodeFaulty(src) {
		src++
	}
	for c.NodeFaulty(dst) {
		dst--
	}
	return c, src, dst
}

// BenchmarkInstrumentationOverhead proves the nil-registry claim: an
// uninstrumented Cube pays one nil check per decision point, so the
// off/unicast and on/unicast numbers must be within noise of each other
// (the "on" path additionally pays the atomic increments). The gs pair
// toggles a fault each iteration so every ComputeLevels recomputes.
func BenchmarkInstrumentationOverhead(b *testing.B) {
	for _, mode := range []struct {
		name string
		reg  func() *Registry
	}{
		{"off", func() *Registry { return nil }},
		{"on", func() *Registry { return NewRegistry() }},
	} {
		b.Run("unicast/"+mode.name, func(b *testing.B) {
			c, src, dst := newOverheadCube(b, mode.reg())
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.Unicast(src, dst)
			}
		})
		b.Run("gs/"+mode.name, func(b *testing.B) {
			c, src, _ := newOverheadCube(b, mode.reg())
			toggle := src // a nonfaulty node to churn the fault generation
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := c.FailNode(toggle); err != nil {
					b.Fatal(err)
				}
				if err := c.RecoverNode(toggle); err != nil {
					b.Fatal(err)
				}
				c.ComputeLevels()
			}
		})
	}
}
