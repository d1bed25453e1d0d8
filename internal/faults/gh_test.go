package faults

// Fault sets over generalized hypercubes (topo.Mixed). Every test name
// carries "GH", so `go test -run GH ./...` runs the generalized suite
// alone.

import (
	"testing"

	"repro/internal/stats"
	"repro/internal/topo"
)

func TestGHInjectUniform(t *testing.T) {
	s := NewSet(topo.MustMixed(3, 3, 3))
	rng := stats.NewRNG(5)
	if err := InjectUniform(s, rng, 7); err != nil {
		t.Fatal(err)
	}
	if s.NodeFaults() != 7 {
		t.Errorf("faults = %d, want 7", s.NodeFaults())
	}
	if err := InjectUniform(s, rng, 100); err == nil {
		t.Error("overfull injection should fail")
	}
	if err := InjectUniform(s, rng, -1); err == nil {
		t.Error("negative injection should fail")
	}
}

func TestGHComponentsFaultFree(t *testing.T) {
	s := NewSet(topo.MustMixed(3, 2, 2))
	labels, count := Components(s)
	if count != 1 || !Connected(s) {
		t.Errorf("fault-free GH has %d components, want 1", count)
	}
	for _, l := range labels {
		if l != 0 {
			t.Error("labels should all be 0")
		}
	}
}
