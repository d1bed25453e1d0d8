package core

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/faults"
	"repro/internal/stats"
	"repro/internal/topo"
)

// The differential golden tests pin the router's observable behavior to
// the pre-refactor (seed) implementation: every (s, d) pair of a set of
// Q4/Q5 fault scenarios is routed and the admission condition, outcome
// and full path are compared line by line against a snapshot generated
// from the seed code. Any change to levels, admission order,
// tie-breaking or forwarding shows up as a diff. The gh_* scenarios pin
// a mixed-radix GH(3x2x4) with node and link faults under both tie
// policies, where the spare choice keeps the lowest-coordinate safest
// sibling of each dimension; they were generated from the candidate-list
// router that preceded the single-pass one.
//
// Regenerate (only when a behavior change is intended and understood):
//
//	UPDATE_GOLDEN=1 go test -run TestDifferentialGolden ./internal/core

// diffScenario is one pinned cube instance.
type diffScenario struct {
	name string
	tie  TieBreak
	set  func() *faults.Set
}

func diffScenarios() []diffScenario {
	q4 := func(addrs ...string) *faults.Set {
		c := topo.MustCube(4)
		s := faults.NewSet(c)
		for _, a := range addrs {
			if err := s.FailNode(c.MustParse(a)); err != nil {
				panic(err)
			}
		}
		return s
	}
	return []diffScenario{
		{name: "q4_fig1", tie: nil, set: func() *faults.Set {
			return q4("0011", "0100", "0110", "1001")
		}},
		{name: "q4_fig1_highdim", tie: HighestDim, set: func() *faults.Set {
			return q4("0011", "0100", "0110", "1001")
		}},
		{name: "q4_fig3_disconnected", tie: nil, set: func() *faults.Set {
			return q4("0110", "1010", "1100", "1111")
		}},
		{name: "q4_fig4_linkfaults", tie: nil, set: func() *faults.Set {
			s := q4("0000", "0100", "1100", "1110")
			c := s.Cube()
			if err := s.FailLink(c.MustParse("1000"), c.MustParse("1001")); err != nil {
				panic(err)
			}
			return s
		}},
		{name: "q5_random", tie: nil, set: func() *faults.Set {
			c := topo.MustCube(5)
			s := faults.NewSet(c)
			if err := faults.InjectUniform(s, stats.NewRNG(5), 6); err != nil {
				panic(err)
			}
			return s
		}},
		{name: "q5_mixed_faults", tie: nil, set: func() *faults.Set {
			c := topo.MustCube(5)
			s := faults.NewSet(c)
			rng := stats.NewRNG(9)
			if err := faults.InjectUniform(s, rng, 4); err != nil {
				panic(err)
			}
			if err := faults.InjectUniformLinks(s, rng, 3); err != nil {
				panic(err)
			}
			return s
		}},
		{name: "gh_3x2x4_lowdim", tie: LowestDim, set: gh324},
		{name: "gh_3x2x4_highdim", tie: HighestDim, set: gh324},
	}
}

// gh324 is GH(3x2x4) (24 nodes) with three node and three link faults:
// 21 pairs are admissible only through C3, and on four of them the two
// tie policies take different spare hops.
func gh324() *faults.Set {
	s := faults.NewSet(topo.MustMixed(4, 2, 3))
	rng := stats.NewRNG(11)
	if err := faults.InjectUniform(s, rng, 3); err != nil {
		panic(err)
	}
	if err := faults.InjectUniformLinks(s, rng, 3); err != nil {
		panic(err)
	}
	return s
}

// renderDiff routes every ordered (s, d) pair and renders one line per
// pair in a stable text format.
func renderDiff(set *faults.Set, tie TieBreak) []byte {
	c := set.Topology()
	as := Compute(set, Options{})
	rt := NewRouter(as, tie)
	var b bytes.Buffer
	fmt.Fprintf(&b, "# faults: %s\n", set)
	for s := 0; s < c.Nodes(); s++ {
		for d := 0; d < c.Nodes(); d++ {
			r := rt.Unicast(topo.NodeID(s), topo.NodeID(d))
			fmt.Fprintf(&b, "%s->%s h=%d cond=%s out=%s", c.Format(topo.NodeID(s)),
				c.Format(topo.NodeID(d)), r.Hamming, r.Condition, r.Outcome)
			if len(r.Path) > 0 {
				fmt.Fprintf(&b, " path=%s", r.Path.FormatWith(c))
			}
			if r.Err != nil {
				fmt.Fprintf(&b, " err=%v", r.Err)
			}
			b.WriteByte('\n')
		}
	}
	return b.Bytes()
}

func TestDifferentialGolden(t *testing.T) {
	update := os.Getenv("UPDATE_GOLDEN") != ""
	for _, sc := range diffScenarios() {
		t.Run(sc.name, func(t *testing.T) {
			got := renderDiff(sc.set(), sc.tie)
			path := filepath.Join("testdata", "diff_"+sc.name+".golden")
			if update {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden (run UPDATE_GOLDEN=1 once): %v", err)
			}
			if !bytes.Equal(got, want) {
				gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
				for i := 0; i < len(gl) && i < len(wl); i++ {
					if !bytes.Equal(gl[i], wl[i]) {
						t.Fatalf("behavior diverges from seed router at line %d:\n got: %s\nwant: %s",
							i+1, gl[i], wl[i])
					}
				}
				t.Fatalf("behavior diverges from seed router: %d vs %d lines", len(gl), len(wl))
			}
		})
	}
}
