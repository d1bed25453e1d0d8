// Package safecube is a Go implementation of reliable unicasting in
// faulty hypercubes using safety levels (Jie Wu, ICPP 1995 / IEEE TC
// 46(2), 1997).
//
// A Cube models an n-dimensional binary hypercube whose nodes (and,
// optionally, links) can fail. Every nonfaulty node carries a safety
// level in 0..n, computed by the distributed GLOBAL_STATUS (GS)
// algorithm in at most n-1 rounds of neighbor information exchange. A
// node with safety level k is guaranteed a Hamming-distance ("optimal")
// path to every node within distance k (Theorem 2), which yields a
// purely local unicast admission test at the source:
//
//   - C1: S(source) >= H(source, dest)                 -> optimal
//   - C2: a preferred neighbor has level >= H-1        -> optimal
//   - C3: a spare neighbor has level >= H+1            -> suboptimal (H+2)
//   - otherwise the unicast fails, detectably, at the source — which
//     makes the scheme usable even in disconnected hypercubes.
//
// A Cube is either the binary n-cube (New) or the Section 4.2
// mixed-radix generalized hypercube GH(m_{n-1} x ... x m_0)
// (NewGeneralized); every method works on both. The package offers
// three execution styles:
//
//   - Cube: sequential model — compute levels, route, inspect paths.
//   - Distributed: goroutine-per-node execution with real message
//     passing (one channel per node), for protocol-cost experiments.
//   - Server (Cube.Serve): a concurrent serving engine with lock-free
//     snapshot reads, asynchronous churn repair, per-request deadlines,
//     admission control, and graceful drain — see docs/OPERATIONS.md
//     for running it in production.
//
// Faulty links (Section 4.1) are supported on all styles: the two end
// nodes of a faulty link expose safety level 0 to the rest of the cube
// but keep routing with their own level.
//
// Key invariant (Theorem 1): the safety-level fixpoint for a given
// fault set is unique, so every layer of the system — sequential
// compute, incremental repair, distributed exchange, and published
// serving snapshots — must converge to bit-identical level tables; the
// chaos and oracle suites convict any divergence.
package safecube
