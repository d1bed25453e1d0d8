// Package core implements the paper's primary contribution: the safety
// level of hypercube nodes (Definition 1), the GLOBAL_STATUS (GS)
// iterative algorithm that computes it in at most n-1 rounds, the
// EXTENDED_GLOBAL_STATUS (EGS) variant for cubes with faulty links
// (Section 4.1), and the optimal/suboptimal unicasting algorithm built on
// safety levels (Section 3), including its disconnected-cube feasibility
// check (Section 3.3).
//
// Everything is generic over topo.Topology: on a binary cube the
// per-dimension neighbor is a single XOR away, while on a generalized
// hypercube (Section 4.2, Definition 4) each dimension first reduces to
// the minimum level among its m_i - 1 siblings. Since Definition 4
// collapses to Definition 1 when every radix is 2, one evaluator serves
// both. Cold runs (Compute) and the incremental RepairLevels used by the
// serving layer share one synchronous engine that evaluates, each round,
// only the nodes whose inputs changed in the previous one; a cold run
// also skips every node with at most one neighbor below n, which keeps
// level n.
//
// Levels live in pages of 4096 nodes that assignments share and copy
// on write. Each page also carries one safe bit per node, set exactly
// when the level is n, written with the level by the one write path,
// and the source step answers a safe source from that bit alone: by
// Theorem 2 with k = n it has an optimal path to every node, so C1
// holds, except toward the far end of one of its faulty links at
// distance 1 (Section 4.1), which the step leaves to the full
// admission test.
//
// Key invariant (Theorem 1): the GS iteration is monotonically
// non-increasing from the all-n start and its fixpoint is unique, so
// Compute and RepairLevels must land on the same assignment for the
// same fault set — the property every differential suite in this
// repository leans on.
package core
