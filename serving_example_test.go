package safecube_test

import (
	"context"
	"fmt"

	safecube "repro"
)

// A Server routes against immutable level snapshots while fault churn
// is applied behind it. Every reader takes a context and passes
// admission, draining and the flight recorder; README's serving
// snippet is this example's body.
func ExampleCube_Serve() {
	srv, _ := safecube.MustNew(10).Serve(safecube.ServeOptions{QueueDepth: 64})
	defer srv.Close()
	ctx := context.Background()
	r, _ := srv.UnicastCtx(ctx, 5, 900) // lock-free snapshot read
	_ = srv.FailNode(132)               // queued; applied asynchronously
	srv.Flush()                         // wait until the fault is published
	pairs := []safecube.TrafficPair{{Src: 5, Dst: 900}, {Src: 6, Dst: 1000}}
	routes, _ := srv.BatchUnicastCtx(ctx, pairs) // one snapshot, routed in order
	fmt.Println(r.Outcome, r.Generation, r.Path)
	for _, rt := range routes {
		fmt.Println(rt.Outcome, rt.Generation, rt.Path)
	}
	// Output:
	// optimal 0 [5 4 132 388 900]
	// optimal 1 [5 4 260 388 900]
	// optimal 1 [6 4 0 8 40 104 232 488 1000]
}
