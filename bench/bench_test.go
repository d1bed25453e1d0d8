package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/topo"
	"repro/internal/wire"
)

func TestQuantileIsExact(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5}
	for _, c := range []struct{ q, want float64 }{
		{0, 1}, {0.25, 2}, {0.5, 3}, {0.9, 4.6}, {1, 5},
	} {
		if got := quantile(s, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Error("quantile of no samples is not NaN")
	}
	if beyond(1000, 0.99) != 10 || beyond(999, 0.99) != 9 {
		t.Errorf("beyond(1000|999, 0.99) = %d|%d, want 10|9", beyond(1000, 0.99), beyond(999, 0.99))
	}
}

// The expected values are Python's statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{4}, [3]float64{4, 4, 4}},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if got := [3]float64{q1, q2, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
	sp := spreadOf([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if sp.IQRShare != 1 || math.Abs(sp.RangeShare-9/5.5) > 1e-12 {
		t.Errorf("spread = %+v, want IQR share 1 and range share %v", sp, 9/5.5)
	}
}

func TestShapeErr(t *testing.T) {
	cube := topo.MustCube(4)
	q := wire.Pair{Src: 0b0000, Dst: 0b0111} // H = 3
	for _, c := range []struct {
		got wire.RouteInfo
		ok  bool
	}{
		{wire.RouteInfo{Outcome: uint8(core.Optimal), Hamming: 3, Hops: 3}, true},
		{wire.RouteInfo{Outcome: uint8(core.Suboptimal), Hamming: 3, Hops: 5}, true},
		{wire.RouteInfo{Outcome: uint8(core.Failure), Hamming: 3}, true},
		{wire.RouteInfo{Outcome: uint8(core.Optimal), Hamming: 3, Hops: 5}, false},
		{wire.RouteInfo{Outcome: uint8(core.Suboptimal), Hamming: 3, Hops: 3}, false},
		{wire.RouteInfo{Outcome: uint8(core.Failure), Hamming: 3, Hops: 1}, false},
		{wire.RouteInfo{Outcome: uint8(core.Optimal), Hamming: 2, Hops: 2}, false},
		{wire.RouteInfo{Outcome: 9, Hamming: 3, Hops: 3}, false},
	} {
		if err := shapeErr(cube, q, c.got); (err == nil) != c.ok {
			t.Errorf("shapeErr(%+v) = %v, want ok=%v", c.got, err, c.ok)
		}
	}
}

func TestVerdictGenerationSkew(t *testing.T) {
	cur := wire.RouteInfo{Outcome: uint8(core.Optimal), Cond: uint8(core.CondC1), Hamming: 3, Hops: 3}
	prev := wire.RouteInfo{Outcome: uint8(core.Suboptimal), Cond: uint8(core.CondC3), Hamming: 3, Hops: 5}
	other := wire.RouteInfo{Outcome: uint8(core.Failure), Hamming: 3}
	for _, c := range []struct {
		name          string
		got           wire.RouteInfo
		hasPrev       bool
		wantSkew, wOK bool
	}{
		{"matches its generation", cur, true, false, true},
		{"matches the generation before", prev, true, true, true},
		{"no generation before the first", prev, false, false, false},
		{"matches neither", other, true, false, false},
	} {
		skew, ok := verdict(c.got, cur, prev, c.hasPrev)
		if skew != c.wantSkew || ok != c.wOK {
			t.Errorf("%s: skew=%v ok=%v, want %v %v", c.name, skew, ok, c.wantSkew, c.wOK)
		}
	}
}

// TestCheckSamplesReplaysHistory drives checkSamples over a small churn
// history: an answer matching its own generation passes, one matching
// the generation before counts as skew, and anything else is a
// mismatch.
func TestCheckSamplesReplaysHistory(t *testing.T) {
	cube := topo.MustCube(4)
	history := []faults.ChurnEvent{
		{Kind: faults.DeltaFailNode, A: 0b0001},
		{Kind: faults.DeltaFailNode, A: 0b0010},
		{Kind: faults.DeltaFailNode, A: 0b0100},
		{Kind: faults.DeltaRecoverNode, A: 0b0010},
	}
	set := faults.NewSet(cube)
	refs := []*core.Router{core.NewRouter(core.Compute(set.Clone(), core.Options{}), nil)}
	live := set.Clone()
	for _, ev := range history {
		if err := live.Apply(ev); err != nil {
			t.Fatal(err)
		}
		refs = append(refs, core.NewRouter(core.Compute(live.Clone(), core.Options{}), nil))
	}
	// Find a generation g and pair whose answer changes from g-1 to g.
	var g int
	var q wire.Pair
search:
	for g = 1; g < len(refs); g++ {
		for s := 0; s < cube.Nodes(); s++ {
			for d := 0; d < cube.Nodes(); d++ {
				q = wire.Pair{Src: uint32(s), Dst: uint32(d)}
				if s != d && refInfo(refs[g], q) != refInfo(refs[g-1], q) {
					break search
				}
			}
		}
	}
	if g == len(refs) {
		t.Fatal("history changes no route; pick other events")
	}
	gen := uint64(g)
	bogus := refInfo(refs[g], q)
	bogus.Hops += 7
	samples := []sample{
		{pair: q, gen: gen, got: refInfo(refs[g], q)},
		{pair: q, gen: gen, got: refInfo(refs[g-1], q)},
		{pair: q, gen: gen, got: bogus},
		{pair: q, gen: uint64(len(history) + 1), got: bogus},
	}
	rep := checkSamples(set, 0, history, samples)
	if rep.checked != 3 || rep.skew != 1 || rep.mismatches != 2 {
		t.Errorf("report %+v, want 3 checked, 1 skew, 2 mismatches", rep)
	}
	if rep := checkSamples(set, 0, nil, samples[:1]); rep.mismatches != 1 {
		t.Errorf("static workload accepted an answer past its starting generation: %+v", rep)
	}
}

func TestInputsFollowTheSeed(t *testing.T) {
	for _, w := range workloads {
		a, err := makeInputs(w, 7)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := makeInputs(w, 7)
		c, _ := makeInputs(w, 8)
		if !reflect.DeepEqual(a.faultArgs, b.faultArgs) || !reflect.DeepEqual(a.pairs, b.pairs) || !reflect.DeepEqual(a.events, b.events) {
			t.Errorf("%s: seed 7 gave two different input sets", w.name)
		}
		if reflect.DeepEqual(a.pairs[0], c.pairs[0]) {
			t.Errorf("%s: seeds 7 and 8 gave the same pairs", w.name)
		}
		if len(a.faultArgs) != w.faults {
			t.Errorf("%s: %d faults, want %d", w.name, len(a.faultArgs), w.faults)
		}
		// Every event stream returns the fault set to its start.
		s := a.set.Clone()
		for _, ev := range a.events {
			if err := s.Apply(ev); err != nil {
				t.Fatalf("%s: %v", w.name, err)
			}
		}
		if s.NodeFaults() != a.set.NodeFaults() {
			t.Errorf("%s: events leave %d faults, started with %d", w.name, s.NodeFaults(), a.set.NodeFaults())
		}
	}
}

// benchmarkSpec is the part of BENCHMARK.json the tests compare with
// the code.
type benchmarkSpec struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	spec := readSpec(t)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the code %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name || spec.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, code has %q: %q", i, spec.Workloads[i], w.name, w.why)
		}
	}
	for _, c := range []struct {
		json []struct{ Name, Unit string }
		code []metricDef
	}{{spec.EndToEnd, e2eMetrics}, {spec.PerLayer, layerMetrics}} {
		if len(c.json) != len(c.code) {
			t.Errorf("BENCHMARK.json lists %d metrics, the code %d", len(c.json), len(c.code))
			continue
		}
		for i, d := range c.code {
			if c.json[i].Name != d.name || c.json[i].Unit != d.unit {
				t.Errorf("metric %d: BENCHMARK.json has %+v, code has %s %s", i, c.json[i], d.name, d.unit)
			}
		}
	}
}

// TestEveryWorkloadEndToEnd runs each workload for one second through
// the command, untraced and traced, against a freshly built slserve. It
// checks the report line's format: exactly the four keys, a passing
// correctness gate, no failed request, and every metric BENCHMARK.json
// names, finite and with its unit.
func TestEveryWorkloadEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("drives a real slserve through every workload")
	}
	bin := filepath.Join(t.TempDir(), "slserve")
	if out, err := exec.Command("go", "build", "-o", bin, "repro/cmd/slserve").CombinedOutput(); err != nil {
		t.Fatalf("building slserve: %v\n%s", err, out)
	}
	spec := readSpec(t)
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			want, mode := spec.EndToEnd, "0"
			if traced {
				want, mode = spec.PerLayer, filepath.Join(t.TempDir(), "trace.json")
			}
			t.Run(w.name+"/trace="+map[bool]string{false: "0", true: "1"}[traced], func(t *testing.T) {
				var stdout, stderr bytes.Buffer
				code := run([]string{"-slserve", bin, "-workload", w.name, "-seed", "1", "-seconds", "1", "-trace", mode}, &stdout, &stderr)
				if code != 0 {
					t.Fatalf("exit %d\n%s", code, stderr.String())
				}
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				var keys map[string]json.RawMessage
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &keys); err != nil {
					t.Fatal(err)
				}
				if len(keys) != 4 || keys["correct"] == nil || keys["attempted"] == nil || keys["failed"] == nil || keys["metrics"] == nil {
					t.Fatalf("report keys %v, want exactly correct, attempted, failed, metrics", keys)
				}
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
					t.Fatalf("correct=%v attempted=%d failed=%d\n%s", res.Correct, res.Attempted, res.Failed, stderr.String())
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics reported, BENCHMARK.json names %d", len(res.Metrics), len(want))
				}
				for _, d := range want {
					v, ok := res.Metrics[d.Name]
					if !ok || v.Unit != d.Unit || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
						t.Errorf("metric %s: got %+v (present %v), want a finite value in %s", d.Name, v, ok, d.Unit)
					}
				}
				if traced {
					if fi, err := os.Stat(mode); err != nil || fi.Size() == 0 {
						t.Errorf("no spans written to %s: %v", mode, err)
					}
				}
			})
		}
	}
}
