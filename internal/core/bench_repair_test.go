package core

import (
	"testing"

	"repro/internal/faults"
	"repro/internal/stats"
	"repro/internal/topo"
)

// benchSet builds the benchmark workload: a 12-cube with 2n faults.
func benchSet(tb testing.TB) *faults.Set {
	c := topo.MustCube(12)
	s := faults.NewSet(c)
	if err := faults.InjectUniform(s, stats.NewRNG(7), 24); err != nil {
		tb.Fatal(err)
	}
	return s
}

// BenchmarkComputeSequential runs a cold Compute on the BENCH_2
// workload (Q12, 24 faults).
func BenchmarkComputeSequential(b *testing.B) {
	s := benchSet(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Compute(s, Options{})
	}
}

// BenchmarkRepairLevels measures single-event incremental repair on the
// BENCH_2 workload (Q12, 24 faults): fail or recover one node, replay
// the journal delta through RepairLevels. This is the hot write path of
// the serving engine, and the Repair leg of the CI bench gate.
func BenchmarkRepairLevels(b *testing.B) {
	set := benchSet(b)
	as := Compute(set, Options{})
	gen := set.Generation()
	victim := topo.NodeID(1000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		if i%2 == 0 {
			err = set.FailNode(victim)
		} else {
			err = set.RecoverNode(victim)
		}
		if err != nil {
			b.Fatal(err)
		}
		delta, ok := set.Since(gen)
		if !ok {
			b.Fatal("journal gap")
		}
		rep, ok := RepairLevels(as, set, delta, Options{})
		if !ok {
			b.Fatal("repair refused")
		}
		as, gen = rep, set.Generation()
	}
}
