package safecube

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/stats"
	"repro/internal/topo"
)

// NodeID identifies a node: its binary address in Q_n, or its
// mixed-radix row-major index in a generalized hypercube (dimension 0
// is the least significant digit).
type NodeID = topo.NodeID

// GNodeID is the name NodeID had on the generalized-hypercube facade.
type GNodeID = NodeID

// Outcome classifies a unicast attempt.
type Outcome = core.Outcome

// Unicast outcome classes (re-exported from the routing core).
const (
	// Optimal: delivered along a Hamming-distance path.
	Optimal = core.Optimal
	// Suboptimal: delivered along a path of length H+2.
	Suboptimal = core.Suboptimal
	// Failure: aborted at the source (no admission condition held).
	Failure = core.Failure
)

// Condition identifies which admission test held at the source.
type Condition = core.Condition

// Admission conditions (re-exported from the routing core).
const (
	CondNone = core.CondNone
	CondC1   = core.CondC1
	CondC2   = core.CondC2
	CondC3   = core.CondC3
)

// MaxDim is the largest supported cube dimension.
const MaxDim = topo.MaxDim

// Cube is a faulty hypercube with safety-level routing: the binary
// n-cube Q_n (New) or a generalized hypercube GH(m_{n-1} x ... x m_0)
// (NewGeneralized, Section 4.2). Along each GH dimension i the m_i
// nodes sharing all other coordinates are fully connected, so every
// dimension is crossed in one hop and the distance between two nodes is
// the number of differing coordinates. Definition 4 reduces to
// Definition 1 when every radix is 2, and routing is "exactly the same"
// on both lattices, so every method works on either.
//
// A Cube is not safe for concurrent mutation; compute-and-route from
// one goroutine, or use Distributed or Serve for a concurrent execution
// model.
type Cube struct {
	t   topo.Topology
	set *faults.Set
	// as is the cached level assignment; it is valid while asGen matches
	// the fault set's mutation generation, so no mutator has to flag
	// staleness by hand and repeated unicasts between fault events reuse
	// one GS run.
	as    *core.Assignment
	asGen uint64

	// Observability (nil when not instrumented; see Instrument).
	reg          *obs.Registry
	routeObs     *obs.RouteObserver
	cacheHits    *obs.Counter
	cacheMisses  *obs.Counter
	cacheRepairs *obs.Counter
}

// Generalized is the name the generalized-hypercube facade had; New
// and NewGeneralized now build the same Cube.
type Generalized = Cube

// New returns an n-dimensional fault-free cube. Dimension must be in
// [1, MaxDim].
func New(n int) (*Cube, error) {
	c, err := topo.NewCube(n)
	if err != nil {
		return nil, err
	}
	return &Cube{t: c, set: faults.NewSet(c)}, nil
}

// MustNew is New for compile-time-constant dimensions; it panics on an
// invalid dimension.
func MustNew(n int) *Cube {
	c, err := New(n)
	if err != nil {
		panic(err)
	}
	return c
}

// NewGeneralized builds a fault-free GH with the given per-dimension
// radixes, listed from dimension 0 upward (NewGeneralized(2, 3, 2) is
// the paper's 2 x 3 x 2 example). Every radix must be at least 2.
func NewGeneralized(radix ...int) (*Cube, error) {
	t, err := topo.NewMixed(radix)
	if err != nil {
		return nil, err
	}
	return &Cube{t: t, set: faults.NewSet(t)}, nil
}

// MustNewGeneralized is NewGeneralized that panics on bad radixes.
func MustNewGeneralized(radix ...int) *Cube {
	g, err := NewGeneralized(radix...)
	if err != nil {
		panic(err)
	}
	return g
}

// ParseRadix converts a shape string in the paper's notation
// ("2x3x2", dimension n-1 first) to the dimension-0-first radix slice
// NewGeneralized takes.
func ParseRadix(shape string) ([]int, error) {
	parts := strings.Split(shape, "x")
	radix := make([]int, len(parts))
	for i, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, fmt.Errorf("bad radix %q: %v", p, err)
		}
		radix[len(parts)-1-i] = v
	}
	return radix, nil
}

// Dim returns the number of dimensions n.
func (c *Cube) Dim() int { return c.t.Dim() }

// Nodes returns the number of nodes: 2^n, or the product of the radixes.
func (c *Cube) Nodes() int { return c.t.Nodes() }

// Radix returns m_i, the number of coordinate values in dimension i
// (2 in every dimension of Q_n).
func (c *Cube) Radix(i int) int { return c.t.Radix(i) }

// Parse converts an address in the paper's notation to a NodeID: an
// n-bit binary string ("0110") or, in a GH, a digit string ("021"),
// dotted when some radix exceeds 10 ("9.2" in GH(12x3)).
func (c *Cube) Parse(addr string) (NodeID, error) { return c.t.Parse(addr) }

// MustParse is Parse that panics on malformed input; intended for
// literals in examples and tests.
func (c *Cube) MustParse(addr string) NodeID {
	a, err := c.Parse(addr)
	if err != nil {
		panic(err)
	}
	return a
}

// Format renders a node in the notation Parse reads.
func (c *Cube) Format(a NodeID) string { return c.t.Format(a) }

// AppendFormat appends Format(a) to dst and returns the extended slice,
// allocating only when dst must grow.
func (c *Cube) AppendFormat(dst []byte, a NodeID) []byte { return c.t.AppendFormat(dst, a) }

// FailNode marks a node fail-stop faulty.
func (c *Cube) FailNode(a NodeID) error {
	return c.set.FailNode(a)
}

// FailNodes marks several nodes faulty.
func (c *Cube) FailNodes(nodes ...NodeID) error {
	return c.set.FailNodes(nodes...)
}

// FailNamed marks the nodes with the given addresses faulty.
func (c *Cube) FailNamed(addrs ...string) error {
	for _, s := range addrs {
		a, err := c.Parse(s)
		if err != nil {
			return err
		}
		if err := c.FailNode(a); err != nil {
			return err
		}
	}
	return nil
}

// RecoverNode marks a previously-failed node healthy again; the next
// ComputeLevels repairs the assignment (the paper's demand-driven GS
// under recovery, Section 2.2).
func (c *Cube) RecoverNode(a NodeID) error {
	return c.set.RecoverNode(a)
}

// FailLink marks the undirected link between two adjacent nodes faulty
// (Section 4.1). Safety levels switch to the EGS computation: both end
// nodes expose level 0 but route with their own level.
func (c *Cube) FailLink(a, b NodeID) error {
	return c.set.FailLink(a, b)
}

// LinkFaulty reports whether the undirected link (a, b) is faulty.
func (c *Cube) LinkFaulty(a, b NodeID) bool { return c.set.LinkFaulty(a, b) }

// InjectRandomFaults fails exactly count additional distinct nodes,
// chosen uniformly with the deterministic generator seeded by seed.
func (c *Cube) InjectRandomFaults(seed uint64, count int) error {
	return faults.InjectUniform(c.set, stats.NewRNG(seed), count)
}

// NodeFaulty reports whether a node is faulty.
func (c *Cube) NodeFaulty(a NodeID) bool { return c.set.NodeFaulty(a) }

// FaultyNodes returns the faulty nodes in ascending order.
func (c *Cube) FaultyNodes() []NodeID { return c.set.FaultyNodes() }

// NodeFaults returns the number of faulty nodes.
func (c *Cube) NodeFaults() int { return c.set.NodeFaults() }

// LinkFaults returns the number of faulty links.
func (c *Cube) LinkFaults() int { return c.set.LinkFaults() }

// Distance returns H(a, b), the number of coordinates in which a and b
// differ: the graph distance in the fault-free cube.
func (c *Cube) Distance(a, b NodeID) int { return c.t.Distance(a, b) }

// Connected reports whether the surviving (nonfaulty) subgraph is one
// component. A false result means the cube is a "disconnected
// hypercube" in the paper's sense; safety-level routing keeps working
// within components and detects cross-partition unicasts at the source.
func (c *Cube) Connected() bool { return faults.Connected(c.set) }

// Hamming returns the Hamming distance between two binary addresses
// (Cube.Distance is the distance on either lattice).
func Hamming(a, b NodeID) int { return topo.Hamming(a, b) }

// Levels is the computed safety-level assignment of a cube.
type Levels struct {
	as *core.Assignment
}

// ComputeLevels runs GS (or EGS when link faults are present) to the
// fixpoint and returns the assignment. The result is cached keyed on the
// fault set's mutation generation: any fault injected or recovered —
// through the Cube, a Distributed engine, or the set itself — invalidates
// it, and nothing else does. A stale cache entry is patched rather than
// discarded when the fault set can replay the intervening delta journal:
// core.RepairLevels reconverges from the last stable assignment, touching
// only the dirty region (same fixpoint by Theorem 1, typically a fraction
// of the cold work). On an instrumented cube every call counts a cache
// hit or miss — a repair counts as a miss plus a repairs counter — and
// every recomputation records a GSTrace (Kind "sequential" or "repair").
func (c *Cube) ComputeLevels() *Levels {
	gen := c.set.Generation()
	if c.as != nil && c.asGen == gen {
		c.cacheHits.Inc()
		return &Levels{as: c.as}
	}
	c.cacheMisses.Inc()
	repaired := false
	if c.as != nil {
		if delta, ok := c.set.Since(c.asGen); ok {
			if as, ok := core.RepairLevels(c.as, c.set, delta, core.Options{}); ok {
				c.as, repaired = as, true
				c.cacheRepairs.Inc()
			}
		}
	}
	if !repaired {
		c.as = core.Compute(c.set, core.Options{})
	}
	c.asGen = gen
	if c.reg != nil {
		c.recordGS()
	}
	return &Levels{as: c.as}
}

// recordGS publishes the cost of the sequential GS run or incremental
// repair that just ended.
func (c *Cube) recordGS() {
	deltas := c.as.Deltas()
	changes := 0
	for _, d := range deltas {
		changes += d
	}
	c.reg.Counter(obs.MetricGSRunsTotal).Inc()
	c.reg.Gauge(obs.MetricGSLastRounds).Set(int64(c.as.Rounds()))
	c.reg.Histogram(obs.MetricGSRoundsHist).Observe(int64(c.as.Rounds()))
	c.reg.Counter(obs.MetricGSLevelChangesTotal).Add(int64(changes))
	tr := &obs.GSTrace{
		Kind:       "sequential",
		Topo:       fmt.Sprint(c.t),
		Dim:        c.Dim(),
		NodeFaults: c.set.NodeFaults(),
		LinkFaults: c.set.LinkFaults(),
		Rounds:     c.as.Rounds(),
		Deltas:     deltas,
		TableBytes: c.as.TableBytes(),
	}
	if c.as.Repaired() {
		tr.Kind = "repair"
		tr.DirtyNodes = c.as.DirtyNodes()
		tr.Evals = c.as.Evals()
		c.reg.Gauge(obs.MetricGSRepairRounds).Set(int64(c.as.Rounds()))
		c.reg.Counter(obs.MetricGSRepairDirtyNodes).Add(int64(c.as.DirtyNodes()))
		c.reg.Counter(obs.MetricGSRepairEvals).Add(int64(c.as.Evals()))
	}
	c.reg.RecordGS(tr)
}

// Level returns node a's safety level as observed by its neighbors
// (0 for faulty nodes and for nodes with an adjacent faulty link).
func (l *Levels) Level(a NodeID) int { return l.as.Level(a) }

// OwnLevel returns node a's own view of its level; it differs from
// Level only for nodes with adjacent faulty links.
func (l *Levels) OwnLevel(a NodeID) int { return l.as.OwnLevel(a) }

// Rounds returns how many synchronous information-exchange rounds the
// levels needed to stabilize (at most n-1; 0 for a fault-free cube).
func (l *Levels) Rounds() int { return l.as.Rounds() }

// Safe reports whether a has the maximum level n.
func (l *Levels) Safe(a NodeID) bool { return l.as.Safe(a) }

// SafeSet returns all safe nodes in ascending order.
func (l *Levels) SafeSet() []NodeID { return l.as.SafeSet() }

// Verify checks the assignment against Definition 1 (Definition 4 in a
// GH) at every node; it returns nil for every assignment produced by
// ComputeLevels.
func (l *Levels) Verify() error { return l.as.Verify() }

// Route is the result of a unicast attempt.
type Route struct {
	// Source and Dest are the unicast endpoints.
	Source, Dest NodeID
	// Hamming is H(Source, Dest), the number of coordinates in which
	// Source and Dest differ.
	Hamming int
	// Outcome classifies the attempt; on Failure the message never left
	// the source.
	Outcome Outcome
	// Condition is the admission test that held (C1, C2, C3 or none).
	Condition Condition
	// Path is the node sequence traveled, starting at Source; empty on
	// failure.
	Path []NodeID
	// Err carries endpoint validation problems (faulty source, node
	// outside the cube). A clean source-side abort has Err == nil.
	Err error
	// RequestID is the flight-recorder ID of the serving request the
	// route answered (nonzero only for routes served by a Server's
	// context-aware readers); it links the route to /debug/flight
	// records, incident traces, and histogram exemplars.
	RequestID uint64
	// Generation is the fault-set generation of the snapshot the route
	// was routed on, set beside RequestID by a Server's context-aware
	// readers. It equals the generation of the route's flight record.
	Generation uint64
}

// Hops returns the number of links traveled (0 on failure).
func (r *Route) Hops() int {
	if len(r.Path) == 0 {
		return 0
	}
	return len(r.Path) - 1
}

// PathString renders the path as "0001 -> 0000 -> 1000" given the cube.
func (r *Route) PathString(c *Cube) string {
	return topo.Path(r.Path).FormatWith(c.t)
}

// routeOf copies a core route into the facade's form.
func routeOf(r *core.Route) *Route {
	if r == nil {
		return nil
	}
	return &Route{
		Source:     r.Source,
		Dest:       r.Dest,
		Hamming:    r.Hamming,
		Outcome:    r.Outcome,
		Condition:  r.Condition,
		Path:       append([]NodeID(nil), r.Path...),
		Err:        r.Err,
		RequestID:  r.FlightID,
		Generation: r.Gen,
	}
}

// Unicast routes a message from s to d using safety levels, computing
// them first if needed. The source must be nonfaulty; the destination
// may be faulty only at distance 1 (a node can always reach its own
// neighbors).
func (c *Cube) Unicast(s, d NodeID) *Route {
	lv := c.ComputeLevels()
	return routeOf(core.NewRouter(lv.as, nil).Observe(c.routeObs).Unicast(s, d))
}

// Feasibility evaluates the source-side admission test for a unicast
// from s to d without moving a message: which condition (if any) holds
// and the outcome class it implies. It agrees with Unicast on every
// pair, faulty and out-of-range endpoints included.
func (c *Cube) Feasibility(s, d NodeID) (Condition, Outcome) {
	lv := c.ComputeLevels()
	return core.NewRouter(lv.as, nil).Feasibility(s, d)
}

// OptimalPathExists reports whether a Hamming-distance path from s to d
// survives the current faults — the ground truth behind Theorem 2, via
// exact dynamic programming (exponential only in H(s, d)).
func (c *Cube) OptimalPathExists(s, d NodeID) bool {
	return faults.HasOptimalPath(c.set, s, d)
}

// String summarizes the cube state: "Q4, 16 nodes, 4 node faults" or
// "GH(2x3x2), 12 nodes, 4 node faults", with the link-fault count
// appended when there are any.
func (c *Cube) String() string {
	s := fmt.Sprintf("%v, %d nodes, %d node faults", c.t, c.Nodes(), c.set.NodeFaults())
	if n := c.set.LinkFaults(); n > 0 {
		s += fmt.Sprintf(", %d link faults", n)
	}
	return s
}
