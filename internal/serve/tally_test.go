package serve

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"

	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/stats"
	"repro/internal/topo"
	"repro/internal/wire"
)

// Tests of how a wire batch counts its answers: once per frame, through
// core.Router.Summaries' tally, with the exposition per-route
// observation gives.

// countScenarios are fault sets whose pairs reach every way a source
// decides: C1, C2, C3 detours, failures across a partition, faulty
// sources (error exits), and link faults, on binary and generalized
// hypercubes.
func countScenarios(t *testing.T) map[string]*faults.Set {
	t.Helper()
	q4 := func(nodes ...topo.NodeID) *faults.Set {
		s := faults.NewSet(topo.MustCube(4))
		if err := s.FailNodes(nodes...); err != nil {
			t.Fatal(err)
		}
		return s
	}
	random := func(tp topo.Topology, seed uint64, nodes, links int) *faults.Set {
		s := faults.NewSet(tp)
		rng := stats.NewRNG(seed)
		if err := faults.InjectUniform(s, rng, nodes); err != nil {
			t.Fatal(err)
		}
		if err := faults.InjectUniformLinks(s, rng, links); err != nil {
			t.Fatal(err)
		}
		return s
	}
	fig4 := q4(0b0000, 0b0100, 0b1100, 0b1110)
	if err := fig4.FailLink(0b1000, 0b1001); err != nil {
		t.Fatal(err)
	}
	return map[string]*faults.Set{
		"q4_fig1":             q4(0b0011, 0b0100, 0b0110, 0b1001),
		"q4_fig3_partitioned": q4(0b0110, 0b1010, 0b1100, 0b1111),
		"q4_fig4_links":       fig4,
		"q5_nodes_and_links":  random(topo.MustCube(5), 9, 4, 3),
		"gh_3x2x4":            random(topo.MustMixed(4, 2, 3), 11, 3, 3),
	}
}

// registered starts a service over set with a registry of its own.
func registered(t *testing.T, set *faults.Set) (*Service, *obs.Registry) {
	t.Helper()
	reg := obs.NewRegistry()
	s, err := New(set, Options{Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s, reg
}

// routeLines renders the route_* lines of r's Prometheus exposition.
func routeLines(t *testing.T, r *obs.Registry) string {
	t.Helper()
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, line := range strings.Split(b.String(), "\n") {
		if strings.Contains(line, "route_") {
			out = append(out, line)
		}
	}
	if len(out) == 0 {
		t.Fatal("no route metrics exported")
	}
	return strings.Join(out, "\n")
}

// summarizeEach answers pairs one at a time through Snapshot.Summary,
// the per-route observation a wire batch's tally must reproduce.
func summarizeEach(sn *Snapshot, pairs []wire.Pair) []wire.RouteInfo {
	out := make([]wire.RouteInfo, len(pairs))
	for i, p := range pairs {
		out[i] = routeInfoOf(sn.Summary(topo.NodeID(p.Src), topo.NodeID(p.Dst)))
	}
	return out
}

// allWirePairs returns every ordered pair of tp's nodes.
func allWirePairs(tp topo.Topology) []wire.Pair {
	var out []wire.Pair
	for a := 0; a < tp.Nodes(); a++ {
		for b := 0; b < tp.Nodes(); b++ {
			out = append(out, wire.Pair{Src: uint32(a), Dst: uint32(b)})
		}
	}
	return out
}

// executeBatch runs one OpBatch frame of pairs through ws's execute
// path and returns its answers.
func executeBatch(t testing.TB, ws *WireServer, cs *connState, pairs []wire.Pair) []wire.RouteInfo {
	t.Helper()
	rh, payload := executeFrame(t, ws, cs, wire.AppendFrame(nil, wire.OpBatch, 0, 1, wire.AppendBatchReq(nil, 0, pairs)))
	if rh.Op != wire.OpBatch {
		code, detail, _ := wire.ParseError(payload)
		t.Fatalf("batch of %d pairs answered %v (code %v, %q)", len(pairs), rh.Op, code, detail)
	}
	_, routes, err := wire.ParseBatchResp(payload, nil)
	if err != nil {
		t.Fatal(err)
	}
	return routes
}

// TestWireBatchCountsLikeSummary serves every pair of each scenario
// through wire batch frames on one registry and through per-route
// Snapshot.Summary on another: the answers and every route_* line must
// be identical. The frames hold 64 pairs, then one, then 100.
func TestWireBatchCountsLikeSummary(t *testing.T) {
	for name, set := range countScenarios(t) {
		bs, batched := registered(t, set)
		ss, single := registered(t, set)
		ws := bareWireServer(bs)
		var cs connState
		pairs := allWirePairs(set.Topology())
		sizes := []int{64, 1, 100}
		for lo, k := 0, 0; lo < len(pairs); k++ {
			hi := min(lo+sizes[k%len(sizes)], len(pairs))
			frame := pairs[lo:hi]
			got, want := executeBatch(t, ws, &cs, frame), summarizeEach(ss.Current(), frame)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s: pair %v: batch %+v, Summary %+v", name, frame[i], got[i], want[i])
				}
			}
			lo = hi
		}
		if b, s := routeLines(t, batched), routeLines(t, single); b != s {
			t.Fatalf("%s: route metrics differ\nbatched:\n%s\nper route:\n%s", name, b, s)
		}
	}
}

// cancelAfter is a context that reports itself canceled from its nth
// Err call on, so a test can stop a batch at a chosen pair. It is for
// one goroutine.
type cancelAfter struct {
	context.Context
	n    int
	done chan struct{}
}

func newCancelAfter(n int) *cancelAfter {
	return &cancelAfter{Context: context.Background(), n: n, done: make(chan struct{})}
}

func (c *cancelAfter) Done() <-chan struct{} { return c.done }

func (c *cancelAfter) Err() error {
	if c.n--; c.n < 0 {
		return context.Canceled
	}
	return nil
}

// TestWireBatchCanceledCountsDecided cancels a wire batch part-way: it
// answers context.Canceled, and the pairs it decided before the
// cancellation are counted exactly as per-route observation counts
// them, while the rest are not counted at all.
func TestWireBatchCanceledCountsDecided(t *testing.T) {
	for name, set := range countScenarios(t) {
		bs, batched := registered(t, set)
		ss, single := registered(t, set)
		pairs := allWirePairs(set.Topology())[:150]
		reqs := make([]Request, len(pairs))
		for i, p := range pairs {
			reqs[i] = Request{Src: topo.NodeID(p.Src), Dst: topo.NodeID(p.Dst)}
		}
		// Admission asks Err once, then the batch once before each pair:
		// the 101st pair is not decided.
		const decided = 100
		var sc sampler
		sums, _, err := bs.batchAtSource(newCancelAfter(1+decided), reqs, nil, &sc)
		if !errors.Is(err, context.Canceled) || len(sums) != decided {
			t.Fatalf("%s: %d answers and %v, want %d and context.Canceled", name, len(sums), err, decided)
		}
		summarizeEach(ss.Current(), pairs[:decided])
		if b, s := routeLines(t, batched), routeLines(t, single); b != s {
			t.Fatalf("%s: route metrics differ\ncanceled batch:\n%s\nper route:\n%s", name, b, s)
		}
		if n := batched.Counter(obs.MetricServeDeadlineTotal).Value(); n != 1 {
			t.Fatalf("%s: %s = %d, want 1", name, obs.MetricServeDeadlineTotal, n)
		}
	}
}

// TestWireBatchConcurrentTotals runs wire batches from several
// connections at once against one registry. The route_* exposition must
// read exactly what answering the same pairs one at a time gives:
// route_unicasts_total is every pair sent, and every histogram's
// buckets, _sum and _count agree. Run it with -race -count=10.
func TestWireBatchConcurrentTotals(t *testing.T) {
	tp := topo.MustCube(8)
	set := faults.NewSet(tp)
	rng := stats.NewRNG(3)
	if err := faults.InjectUniform(set, rng, 20); err != nil {
		t.Fatal(err)
	}
	if err := faults.InjectUniformLinks(set, rng, 10); err != nil {
		t.Fatal(err)
	}
	bs, batched := registered(t, set)
	ss, single := registered(t, set)
	ws := bareWireServer(bs)

	const conns, frames, perFrame = 4, 40, 64
	sent := make([][]wire.Pair, conns)
	for c := range sent {
		for i := 0; i < frames*perFrame; i++ {
			sent[c] = append(sent[c], wire.Pair{Src: uint32(rng.Intn(tp.Nodes())), Dst: uint32(rng.Intn(tp.Nodes()))})
		}
	}
	var wg sync.WaitGroup
	for c := range sent {
		wg.Add(1)
		go func(pairs []wire.Pair) {
			defer wg.Done()
			var cs connState
			for lo := 0; lo < len(pairs); lo += perFrame {
				hdr, body := batchFrame(pairs[lo : lo+perFrame])
				out := ws.execute(hdr, body, &cs)
				if h, err := wire.ParseHeader(out); err != nil || h.Op != wire.OpBatch {
					t.Errorf("batch answered %v (%v)", h.Op, err)
				}
				wire.PutBuf(out)
			}
		}(sent[c])
	}
	wg.Wait()
	for _, pairs := range sent {
		summarizeEach(ss.Current(), pairs)
	}
	if n := batched.Counter(obs.MetricUnicastsTotal).Value(); n != conns*frames*perFrame {
		t.Fatalf("%s = %d, want %d", obs.MetricUnicastsTotal, n, conns*frames*perFrame)
	}
	if b, s := routeLines(t, batched), routeLines(t, single); b != s {
		t.Fatalf("route metrics differ\nconcurrent batches:\n%s\nsequential replay:\n%s", b, s)
	}
}

// batchFrame encodes pairs as one OpBatch request and returns its
// header and payload, as the connection's reader hands them to execute.
func batchFrame(pairs []wire.Pair) (wire.Header, []byte) {
	f := wire.AppendFrame(nil, wire.OpBatch, 0, 1, wire.AppendBatchReq(nil, 0, pairs))
	hdr, _ := wire.ParseHeader(f)
	return hdr, f[wire.HeaderSize:]
}

// TestWireOversizeBatchKeepsScratch sends one OpBatch frame of the most
// pairs a 1 MiB payload carries. It is refused with CodeTooLarge, as
// before, and the connection's pair scratch must not have grown past
// MaxBatchPairs to decode it: the connection would hold that memory for
// its lifetime.
func TestWireOversizeBatchKeepsScratch(t *testing.T) {
	svc := newService(t, topo.MustCube(6), Options{})
	ws := bareWireServer(svc)
	var cs connState
	n := (wire.DefaultMaxPayload - 8) / 8
	hdr, body := batchFrame(make([]wire.Pair, n))
	out := ws.execute(hdr, body, &cs)
	defer wire.PutBuf(out)
	code, detail, err := wire.ParseError(out[wire.HeaderSize:])
	if err != nil || code != wire.CodeTooLarge {
		t.Fatalf("oversize batch: code %v, err %v; want CodeTooLarge", code, err)
	}
	if want := "batch of 131071 pairs exceeds limit 4096"; detail != want {
		t.Fatalf("detail %q, want %q", detail, want)
	}
	if c := cap(cs.reqs); c > MaxBatchPairs {
		t.Fatalf("connection keeps room for %d pairs after the refusal, want at most %d", c, MaxBatchPairs)
	}
}
