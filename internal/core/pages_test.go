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
// short last page otherwise, each with its safe-bit tail in the same
// allocation just past its levels; that the pages a uniform table owns
// from the start are its own, apart from the shared page and one
// another; that every node's safe bit reads its level == n after any
// sequence of writes; and copy-on-first-write that leaves the
// forked-from table, bits included, untouched.
func TestLevelTablePages(t *testing.T) {
	const n = 5
	for _, nodes := range []int{2, 9, pageSize, pageSize + 1, 3 * pageSize, 6561} {
		// half owns every other page from the start and writes the first
		// node of each; tab owns none and is written node by node.
		own := make([]bool, pageCount(nodes))
		for p := range own {
			own[p] = p%2 == 0
		}
		half := uniformTable(nodes, n, own)
		tab := uniformTable(nodes, n, nil)
		for a := 0; a < nodes; a++ {
			if !half.safe(a) || !tab.safe(a) {
				t.Fatalf("nodes=%d: node %d of a uniform table is not safe", nodes, a)
			}
		}
		owned := make([]bool, len(tab))
		for a := 0; a < nodes; a++ {
			if a&pageMask == 0 && own[a>>pageShift] {
				half.write(own, a, uint8(a>>pageShift), n)
			}
			tab.write(owned, a, uint8(a%7), n)
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
				if cap(page) != len(page)+tailBytes(len(page)) {
					t.Fatalf("nodes=%d: page %d of %d nodes has capacity %d", nodes, p, len(page), cap(page))
				}
				total += len(page)
			}
			if total != nodes {
				t.Fatalf("nodes=%d: pages hold %d nodes", nodes, total)
			}
		}
		for a := 0; a < nodes; a++ {
			want := uint8(n)
			if a&pageMask == 0 && own[a>>pageShift] {
				want = uint8(a >> pageShift)
			}
			if half.at(a) != want || tab.at(a) != uint8(a%7) {
				t.Fatalf("nodes=%d: node %d reads %d and %d, want %d and %d", nodes, a, half.at(a), tab.at(a), want, a%7)
			}
			if half.safe(a) != (want == n) || tab.safe(a) != (a%7 == n) {
				t.Fatalf("nodes=%d: node %d at levels %d and %d has safe bits %v and %v",
					nodes, a, want, a%7, half.safe(a), tab.safe(a))
			}
		}
		fork := slices.Clone(tab)
		clear(owned)
		last := nodes - 1
		fork.write(owned, last, 6, n)
		fork.write(owned, 0, n, n)
		if fork.at(last) != 6 || fork.safe(last) || fork.at(0) != n || !fork.safe(0) {
			t.Fatalf("nodes=%d: fork lost its writes", nodes)
		}
		if tab.at(last) != uint8(last%7) || tab.safe(last) != (last%7 == n) || tab.at(0) != 0 || tab.safe(0) {
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

// TestSafeBitsTrackLevelsUnderChurn replays node and link churn on Q14
// (four pages), GH(2x4x3) (one small page) and GH(3^8) (a full page and
// a short one). After every event, every node's safe bits must read its
// levels == n, the own table's against OwnLevel and the public table's
// against Level, on the cold Compute and on the RepairLevels result,
// each live and detached, and on the repair's predecessor, whose pages
// the repair shares or copies before writing.
func TestSafeBitsTrackLevelsUnderChurn(t *testing.T) {
	shapes := []topo.Topology{topo.MustCube(14), topo.MustMixed(3, 4, 2), topo.MustMixed(3, 3, 3, 3, 3, 3, 3, 3)}
	for si, tp := range shapes {
		t.Run(fmt.Sprint(tp), func(t *testing.T) {
			events := faults.ChurnSchedule(tp, uint64(77+si), 40, faults.ChurnOptions{Links: true})
			set := faults.NewSet(tp)
			prev := Compute(set, Options{})
			gen := set.Generation()
			kinds := map[faults.DeltaKind]int{}
			ownOnly := 0 // safe N2 nodes seen: own level n, public 0
			for i, ev := range events {
				if err := set.Apply(ev); err != nil {
					t.Fatalf("step %d %v: %v", i, ev, err)
				}
				kinds[ev.Kind]++
				delta, ok := set.Since(gen)
				if !ok {
					t.Fatalf("step %d: journal gap", i)
				}
				rep, ok := RepairLevels(prev, set, delta, Options{})
				if !ok {
					t.Fatalf("step %d %v: repair refused", i, ev)
				}
				cold := Compute(set, Options{})
				for j, as := range []*Assignment{cold, cold.Detach(), rep, rep.Detach(), prev} {
					ownOnly += assertSafeBits(t, fmt.Sprintf("step %d (%v) assignment %d", i, ev, j), as)
				}
				prev, gen = rep, set.Generation()
			}
			for _, k := range []faults.DeltaKind{faults.DeltaFailNode, faults.DeltaRecoverNode, faults.DeltaFailLink, faults.DeltaRecoverLink} {
				if kinds[k] == 0 {
					t.Fatalf("the schedule has no %v event", k)
				}
			}
			if ownOnly == 0 {
				t.Fatal("no safe N2 node: the own and public bits never differed")
			}
		})
	}
}

// assertSafeBits fails unless every node's own and public safe bits read
// OwnLevel == Dim and Level == Dim. It returns the number of nodes whose
// own bit is set and public bit clear.
func assertSafeBits(t *testing.T, name string, as *Assignment) int {
	t.Helper()
	tp, split := as.Topology(), 0
	for a := 0; a < tp.Nodes(); a++ {
		id := topo.NodeID(a)
		own, pub := as.own.safe(a), as.public.safe(a)
		if own != (as.OwnLevel(id) == tp.Dim()) || pub != (as.Level(id) == tp.Dim()) {
			t.Fatalf("%s: node %s at own level %d and public level %d has safe bits %v and %v",
				name, tp.Format(id), as.OwnLevel(id), as.Level(id), own, pub)
		}
		if own && !pub {
			split++
		}
	}
	return split
}
