// Generalized hypercubes: the paper's Section 4.2 / Fig. 5 scenario.
// In GH(2x3x2) each dimension i is a complete graph over m_i sibling
// nodes, so any dimension is crossed in one hop and the distance between
// two nodes is the number of differing coordinates. Definition 4
// reduces each dimension to the minimum sibling level, then applies the
// binary cube's level formula — and routing is exactly the same
// highest-level-preferred-candidate rule.
package main

import (
	"fmt"
	"log"

	safecube "repro"
)

func main() {
	gh := safecube.MustNewGeneralized(2, 3, 2) // m2 x m1 x m0 = 2 x 3 x 2
	if err := gh.FailNamed("011", "100", "111", "121"); err != nil {
		log.Fatal(err)
	}

	levels := gh.ComputeLevels()
	fmt.Printf("GH(2x3x2), %d nodes, levels stabilized in %d rounds\n",
		gh.Nodes(), levels.Rounds())
	for a := 0; a < gh.Nodes(); a++ {
		id := safecube.NodeID(a)
		mark := ""
		if gh.NodeFaulty(id) {
			mark = " (faulty)"
		} else if levels.Level(id) == gh.Dim() {
			mark = " (safe)"
		}
		fmt.Printf("  S(%s) = %d%s\n", gh.Format(id), levels.Level(id), mark)
	}
	fmt.Printf("safe nodes: %d (paper: four)\n\n", len(levels.SafeSet()))

	// The paper's worked route: 010 -> 101 differ in all three
	// coordinates. The dimension-0 candidate 011 is faulty and the
	// dimension-2 candidate 110 has level 1 < H-1 = 2; the dimension-1
	// candidate 000 carries the route.
	src, dst := gh.MustParse("010"), gh.MustParse("101")
	r := gh.Unicast(src, dst)
	fmt.Printf("unicast %s -> %s (H = %d): %s via %s\n",
		gh.Format(src), gh.Format(dst), r.Hamming, r.Outcome, r.Condition)
	fmt.Printf("path: %s\n", r.PathString(gh))
	fmt.Println("(paper: 010 -> 000 -> 001 -> 101)")

	// Every unicast out of a safe node is optimal.
	for _, s := range levels.SafeSet() {
		worst := 0
		for d := 0; d < gh.Nodes(); d++ {
			did := safecube.NodeID(d)
			if gh.NodeFaulty(did) {
				continue
			}
			rr := gh.Unicast(s, did)
			if rr.Outcome != safecube.Optimal {
				log.Fatalf("route from safe node %s to %s not optimal", gh.Format(s), gh.Format(did))
			}
			if rr.Hops() > worst {
				worst = rr.Hops()
			}
		}
		fmt.Printf("safe node %s: optimal to every nonfaulty node (longest path %d hops)\n",
			gh.Format(s), worst)
	}
}
