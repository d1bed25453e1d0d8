package core

import (
	"runtime"
	"testing"

	"repro/internal/faults"
	"repro/internal/stats"
	"repro/internal/topo"
)

// Scale benchmarks for the flat SoA core. Both are part of the CI
// bench-hot set (their names match the gate's Benchmark(GS|Repair)
// regex), so regressions in ns/op or allocs/op on the large-cube paths
// fail the bench-gate job.

// coldQ16Set is the cold-run workload: Q16 (65,536 nodes), 40 faults.
func coldQ16Set(tb testing.TB) *faults.Set {
	s := faults.NewSet(topo.MustCube(16))
	if err := faults.InjectUniform(s, stats.NewRNG(7), 40); err != nil {
		tb.Fatal(err)
	}
	return s
}

// BenchmarkGSColdQ16 runs a cold GLOBAL_STATUS run over Q16 with 40
// uniform faults — the serving engine's cold-start path on a large
// cube.
func BenchmarkGSColdQ16(b *testing.B) {
	s := coldQ16Set(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Compute(s, Options{})
	}
}

// BenchmarkGSColdQ20 runs a cold GLOBAL_STATUS run over Q20 with 2000
// uniform faults, sequentially: the run serve.New makes at start-up and
// the applier falls back to, on the q20-batch workload's shape.
func BenchmarkGSColdQ20(b *testing.B) {
	s := faults.NewSet(topo.MustCube(20))
	if err := faults.InjectUniform(s, stats.NewRNG(42), 2000); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Compute(s, Options{})
	}
}

// TestGSColdQ16Bytes ratchets the bytes a cold run allocates on the
// BenchmarkGSColdQ16 workload: the one-byte-per-node level table plus
// the few nodes the faults perturb, at most 2 bytes per node. A sweep
// over every node paid about 6: a second round buffer and a 4-byte
// stability entry per node on top of the table.
func TestGSColdQ16Bytes(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	s := coldQ16Set(t)
	Compute(s, Options{}) // fill the scratch pool
	const runs = 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		Compute(s, Options{})
	}
	runtime.ReadMemStats(&after)
	perNode := float64(after.TotalAlloc-before.TotalAlloc) / runs / float64(s.Topology().Nodes())
	if perNode > 2 {
		t.Errorf("cold Compute allocates %.2f bytes per node, want <= 2", perNode)
	}
}

// TestRepairPublishQ16Bytes ratchets the bytes one published fault
// costs on the BenchmarkGSColdQ16 workload: a fail or recover on a
// random nonfaulty node, repaired by RepairLevels and detached for
// publishing as the serving applier does, allocates at most 0.1 bytes
// per node. Copying the level table in the repair and again in Detach
// cost about 2.1; shared pages brought it to 0.206, of which 0.125 was
// the node-bitset clone Detach made. Detach now copies only the link
// slice, so what remains (0.081) is the page the repair writes, its
// page directory and the two Assignment headers.
func TestRepairPublishQ16Bytes(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	set := coldQ16Set(t)
	nodes := set.Topology().Nodes()
	rng := stats.NewRNG(11)
	as := Compute(set, Options{})
	event := func(v topo.NodeID, recover bool) {
		gen := set.Generation()
		var err error
		if recover {
			err = set.RecoverNode(v)
		} else {
			err = set.FailNode(v)
		}
		if err != nil {
			t.Fatal(err)
		}
		delta, ok := set.Since(gen)
		if !ok {
			t.Fatal("journal gap")
		}
		rep, ok := RepairLevels(as, set, delta, Options{})
		if !ok {
			t.Fatal("repair refused")
		}
		rep.Detach()
		as = rep
	}
	event(0, false) // fill the scratch pool
	event(0, true)
	const events = 200
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < events/2; i++ {
		v := topo.NodeID(rng.Intn(nodes))
		for set.NodeFaulty(v) {
			v = topo.NodeID(rng.Intn(nodes))
		}
		event(v, false)
		event(v, true)
	}
	runtime.ReadMemStats(&after)
	perNode := float64(after.TotalAlloc-before.TotalAlloc) / events / float64(nodes)
	t.Logf("%.3f bytes per node per published event", perNode)
	if perNode > 0.1 {
		t.Errorf("a repaired and detached event allocates %.3f bytes per node, want <= 0.1", perNode)
	}
}

// BenchmarkRepairQ16 measures single-event incremental repair on Q16:
// fail or recover one node, replay the journal delta through
// RepairLevels. The dominant per-op cost should be the retained level
// table of the new assignment (one byte per node), not the repair
// working state, which lives in the pooled scratch.
func BenchmarkRepairQ16(b *testing.B) {
	c := topo.MustCube(16)
	set := faults.NewSet(c)
	if err := faults.InjectUniform(set, stats.NewRNG(7), 40); err != nil {
		b.Fatal(err)
	}
	as := Compute(set, Options{})
	gen := set.Generation()
	victim := topo.NodeID(31337)
	b.ReportAllocs()
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

// churnReplayQ10 is the churn schedule BENCH_3.json and BENCH_7.json
// recorded: Q10, 40 fail/recover events with link faults, seed 3.
func churnReplayQ10() (topo.Topology, []faults.ChurnEvent) {
	tp := topo.MustCube(10)
	return tp, faults.ChurnSchedule(tp, 3, 40, faults.ChurnOptions{Links: true})
}

// replayChurn applies events to a fault-free set one at a time and
// keeps its level table by incremental repair.
func replayChurn(tb testing.TB, tp topo.Topology, events []faults.ChurnEvent) {
	set := faults.NewSet(tp)
	prev := Compute(set, Options{})
	gen := set.Generation()
	for _, ev := range events {
		if err := set.Apply(ev); err != nil {
			tb.Fatal(err)
		}
		delta, ok := set.Since(gen)
		if !ok {
			tb.Fatal("journal gap")
		}
		as, ok := RepairLevels(prev, set, delta, Options{})
		if !ok {
			tb.Fatal("repair refused")
		}
		prev, gen = as, set.Generation()
	}
}

// BenchmarkRepairChurnReplayQ10 replays churnReplayQ10 once per op,
// keeping the table by incremental repair.
// TestRepairChurnReplayQ10Bytes holds its bytes/op.
func BenchmarkRepairChurnReplayQ10(b *testing.B) {
	tp, events := churnReplayQ10()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		replayChurn(b, tp, events)
	}
}

// TestRepairChurnReplayQ10Bytes holds BENCH_7.json's claim: one replay
// of churnReplayQ10 allocates at least 10x fewer bytes than the
// 1,105,011 B the map-based core spent on the same loop in BENCH_3.json.
// The flat core reads about 95 KB.
func TestRepairChurnReplayQ10Bytes(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	tp, events := churnReplayQ10()
	replayChurn(t, tp, events) // fill the scratch pool
	const runs = 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		replayChurn(t, tp, events)
	}
	runtime.ReadMemStats(&after)
	perReplay := (after.TotalAlloc - before.TotalAlloc) / runs
	t.Logf("%d bytes per replay", perReplay)
	const maxBytes = 1105011 / 10
	if perReplay > maxBytes {
		t.Errorf("a churn replay allocates %d bytes, want <= %d", perReplay, maxBytes)
	}
}
