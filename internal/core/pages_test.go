package core

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/faults"
	"repro/internal/topo"
)

// TestLevelTablePages checks the page layout: full pages of pageSize
// nodes, one page of its own size for a table smaller than a page, a
// short last page otherwise; that the pages a uniform table owns from
// the start are its own, apart from the shared page and one another;
// and copy-on-first-write that leaves the forked-from table untouched.
func TestLevelTablePages(t *testing.T) {
	for _, nodes := range []int{2, 9, pageSize, pageSize + 1, 3 * pageSize, 6561} {
		// half owns every other page from the start and writes the first
		// node of each; tab owns none and is written node by node.
		own := make([]bool, pageCount(nodes))
		for p := range own {
			own[p] = p%2 == 0
		}
		half := uniformTable(nodes, 5, own)
		tab := uniformTable(nodes, 5, nil)
		owned := make([]bool, len(tab))
		for a := 0; a < nodes; a++ {
			if a&pageMask == 0 && own[a>>pageShift] {
				half.write(own, a, uint8(a>>pageShift))
			}
			tab.write(owned, a, uint8(a%7))
		}
		for _, tab := range []levelTable{half, tab} {
			if len(tab) != pageCount(nodes) {
				t.Fatalf("nodes=%d: %d pages, want %d", nodes, len(tab), pageCount(nodes))
			}
			total := 0
			for p, page := range tab {
				if p < len(tab)-1 && len(page) != pageSize {
					t.Fatalf("nodes=%d: inner page %d holds %d nodes", nodes, p, len(page))
				}
				total += len(page)
			}
			if total != nodes {
				t.Fatalf("nodes=%d: pages hold %d nodes", nodes, total)
			}
		}
		for a := 0; a < nodes; a++ {
			want := uint8(5)
			if a&pageMask == 0 && own[a>>pageShift] {
				want = uint8(a >> pageShift)
			}
			if half.at(a) != want || tab.at(a) != uint8(a%7) {
				t.Fatalf("nodes=%d: node %d reads %d and %d, want %d and %d", nodes, a, half.at(a), tab.at(a), want, a%7)
			}
		}
		fork := slices.Clone(tab)
		clear(owned)
		last := nodes - 1
		fork.write(owned, last, 6)
		fork.write(owned, 0, 6)
		if fork.at(last) != 6 || fork.at(0) != 6 {
			t.Fatalf("nodes=%d: fork lost its writes", nodes)
		}
		if tab.at(last) != uint8(last%7) || tab.at(0) != 0 {
			t.Fatalf("nodes=%d: write reached the forked-from table", nodes)
		}
		if len(tab) > 2 && &fork[1][0] != &tab[1][0] {
			t.Fatalf("nodes=%d: an unwritten page was copied", nodes)
		}
	}
}

// TestChurnRepairPagesMatchCold replays churn on shapes that span
// several level pages — Q14 (four pages) and the 3^8 generalized cube
// (a full page and a short one) — and after every event requires the
// repair to equal a cold run, and the predecessor and its detached copy
// to keep their levels: a repair copies a page before writing it.
func TestChurnRepairPagesMatchCold(t *testing.T) {
	shapes := []topo.Topology{topo.MustCube(14), topo.MustMixed(3, 3, 3, 3, 3, 3, 3, 3)}
	for si, tp := range shapes {
		for _, links := range []bool{false, true} {
			t.Run(fmt.Sprintf("shape%d/links=%v", si, links), func(t *testing.T) {
				events := faults.ChurnSchedule(tp, uint64(31+si), 40, faults.ChurnOptions{Links: links})
				set := faults.NewSet(tp)
				prev := Compute(set, Options{})
				gen := set.Generation()
				for i, ev := range events {
					if err := set.Apply(ev); err != nil {
						t.Fatalf("step %d %v: %v", i, ev, err)
					}
					delta, ok := set.Since(gen)
					if !ok {
						t.Fatalf("step %d: journal gap", i)
					}
					det := prev.Detach()
					pub, own := prev.Levels(), ownLevels(prev)
					rep, ok := RepairLevels(prev, set, delta, Options{})
					if !ok {
						t.Fatalf("step %d %v: repair refused", i, ev)
					}
					assertSameFixpoint(t, fmt.Sprintf("step %d (%v)", i, ev), rep, Compute(set, Options{}))
					for _, old := range []*Assignment{prev, det} {
						if !slices.Equal(old.Levels(), pub) || !slices.Equal(ownLevels(old), own) {
							t.Fatalf("step %d (%v): the repair changed its predecessor's levels", i, ev)
						}
					}
					prev, gen = rep, set.Generation()
				}
			})
		}
	}
}

func ownLevels(as *Assignment) []int {
	out := make([]int, as.Topology().Nodes())
	for a := range out {
		out[a] = as.OwnLevel(topo.NodeID(a))
	}
	return out
}
