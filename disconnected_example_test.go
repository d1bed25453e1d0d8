package safecube_test

import (
	"fmt"

	safecube "repro"
)

// The paper's Fig. 3: four faults cut node 1110 off from the rest of
// the 4-cube. Routing stays optimal inside the large part, and every
// unicast that would have to cross the cut is refused at the source:
// it fails after 0 hops. (Theorem 4: the earlier safe-node schemes
// have no safe node at all in a disconnected hypercube.)
func ExampleCube_Connected() {
	cube := safecube.MustNew(4)
	if err := cube.FailNamed("0110", "1010", "1100", "1111"); err != nil {
		panic(err)
	}
	fmt.Println("connected:", cube.Connected())
	for _, pair := range [][2]string{
		{"0101", "0000"}, // S(0101) = 2 = H
		{"0111", "1011"}, // through the preferred neighbor 0011
		{"0111", "1110"},
		{"1110", "0000"},
	} {
		route := cube.Unicast(cube.MustParse(pair[0]), cube.MustParse(pair[1]))
		fmt.Printf("%s to %s: %v via %v, %d hops", pair[0], pair[1],
			route.Outcome, route.Condition, route.Hops())
		if path := route.PathString(cube); path != "" {
			fmt.Print(": ", path)
		}
		fmt.Println()
	}
	// Output:
	// connected: false
	// 0101 to 0000: optimal via C1, 2 hops: 0101 -> 0001 -> 0000
	// 0111 to 1011: optimal via C2, 2 hops: 0111 -> 0011 -> 1011
	// 0111 to 1110: failure via none, 0 hops
	// 1110 to 0000: failure via none, 0 hops
}
