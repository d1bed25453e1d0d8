package serve

import (
	"context"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/stats"
	"repro/internal/topo"
)

// TestFlightDetourIdentity is the route-quality property test: for every
// recorded single unicast that was actually delivered (optimal or
// suboptimal), the flight record's triple must satisfy
// Hops - Hamming == 2 * Detours — a delivered safety-level route strays
// off the minimal path only via spare-dimension detours, and each one
// costs exactly two extra links (out and back).
func TestFlightDetourIdentity(t *testing.T) {
	tp := topo.MustCube(8)
	set := faults.NewSet(tp)
	if err := faults.InjectUniform(set, stats.NewRNG(1234), 24); err != nil {
		t.Fatal(err)
	}
	fl := obs.NewFlightRecorder(obs.FlightOptions{Records: 8192})
	s, err := New(set, Options{Flight: fl})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	rng := stats.NewRNG(99)
	ctx := context.Background()
	const calls = 3000
	for i := 0; i < calls; i++ {
		src := topo.NodeID(rng.Intn(tp.Nodes()))
		dst := topo.NodeID(rng.Intn(tp.Nodes()))
		if _, err := s.RouteCtx(ctx, src, dst); err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
	}

	recs := fl.Records(0)
	if len(recs) < calls {
		t.Fatalf("retained %d records, want >= %d", len(recs), calls)
	}
	gen := s.Current().Generation()
	var delivered, suboptimal int
	for _, rec := range recs {
		if rec.Kind != obs.ReqRoute {
			t.Fatalf("unexpected kind %v in record %+v", rec.Kind, rec)
		}
		if rec.Gen != gen {
			t.Fatalf("record %d served against gen %d, snapshot is %d", rec.ID, rec.Gen, gen)
		}
		switch rec.Outcome {
		case obs.OutcomeOptimal, obs.OutcomeSuboptimal:
			delivered++
			if rec.Hops-rec.Hamming != 2*rec.Detours {
				t.Fatalf("record %+v violates hops - hamming == 2*detours", rec)
			}
			if rec.Outcome == obs.OutcomeSuboptimal {
				suboptimal++
				if rec.Detours == 0 {
					t.Fatalf("suboptimal record %+v has no detour", rec)
				}
			}
		}
	}
	if delivered == 0 {
		t.Fatal("no delivered routes recorded; property vacuous")
	}
	if suboptimal == 0 {
		t.Fatal("no suboptimal routes in the sample; raise the fault load")
	}
}

// TestFlightGenerationUnderChurn verifies generation attribution: a
// read served after a flushed churn write carries the new snapshot's
// generation in its flight record.
func TestFlightGenerationUnderChurn(t *testing.T) {
	set := faults.NewSet(topo.MustCube(6))
	fl := obs.NewFlightRecorder(obs.FlightOptions{})
	s, err := New(set, Options{Flight: fl})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	ctx := context.Background()
	g0 := s.Current().Generation()
	if _, err := s.RouteCtx(ctx, 0, 9); err != nil {
		t.Fatal(err)
	}
	if err := s.Apply(faults.ChurnEvent{Kind: faults.DeltaFailNode, A: 33}); err != nil {
		t.Fatal(err)
	}
	s.Flush()
	g1 := s.Current().Generation()
	if g1 == g0 {
		t.Fatalf("generation did not advance after churn (still %d)", g1)
	}
	if _, err := s.RouteCtx(ctx, 0, 9); err != nil {
		t.Fatal(err)
	}

	recs := fl.Records(2)
	if len(recs) != 2 {
		t.Fatalf("retained %d records, want 2", len(recs))
	}
	if recs[0].Gen != g1 || recs[1].Gen != g0 {
		t.Errorf("generations = %d then %d (newest first), want %d then %d",
			recs[0].Gen, recs[1].Gen, g1, g0)
	}
}

// TestFlightIncidentSuboptimal is the end-to-end incident check on the
// paper's deterministic Section-3 scenario: Q4 with 0001 and 0010
// faulty makes 0000 unsafe, so 0000 -> 0011 (H = 2) admits under C3 and
// delivers suboptimally via one spare-dimension detour. That route must
// surface as a "non-minimal" incident whose trace carries the C3
// admission and the spare hop, linked to the request ID.
func TestFlightIncidentSuboptimal(t *testing.T) {
	set := faults.NewSet(topo.MustCube(4))
	if err := set.FailNodes(1, 2); err != nil { // 0001, 0010
		t.Fatal(err)
	}
	s, err := New(set, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	r, err := s.RouteCtx(context.Background(), 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if r.Condition != core.CondC3 || r.Outcome != core.Suboptimal {
		t.Fatalf("route = %v/%v, want C3/suboptimal", r.Condition, r.Outcome)
	}
	if r.FlightID == 0 {
		t.Fatal("route has no flight ID")
	}
	if r.Len() != r.Hamming+2 {
		t.Fatalf("path length %d, want H+2 = %d", r.Len(), r.Hamming+2)
	}

	inc := s.Flight().Incidents()
	if inc.Total != 1 || len(inc.Incidents) != 1 {
		t.Fatalf("incidents = %d total %d retained, want exactly 1", inc.Total, len(inc.Incidents))
	}
	got := inc.Incidents[0]
	if got.Reason != "non-minimal" {
		t.Errorf("reason = %q, want non-minimal", got.Reason)
	}
	if got.Record.ID != r.FlightID {
		t.Errorf("incident records ID %d, route carries %d", got.Record.ID, r.FlightID)
	}
	if got.Record.Detours != 1 || got.Record.Hops != got.Record.Hamming+2 {
		t.Errorf("incident triple H=%d hops=%d detours=%d, want detours 1 and hops H+2",
			got.Record.Hamming, got.Record.Hops, got.Record.Detours)
	}
	tr := got.Trace
	if tr == nil {
		t.Fatal("incident has no trace")
	}
	if tr.RequestID != r.FlightID || tr.Generation != got.Record.Gen {
		t.Errorf("trace req/gen = %d/%d, want %d/%d", tr.RequestID, tr.Generation, r.FlightID, got.Record.Gen)
	}
	if len(tr.Events) != 1+r.Len()+1 {
		t.Fatalf("trace has %d events, want admit + %d hops + done", len(tr.Events), r.Len())
	}
	if tr.Events[0].Kind != obs.EvAdmit || tr.Events[0].Cond != "C3" {
		t.Errorf("first event = %v/%q, want admit under C3", tr.Events[0].Kind, tr.Events[0].Cond)
	}
	spares := 0
	for _, ev := range tr.Events {
		if ev.Kind == obs.EvHop && ev.Spare {
			spares++
		}
	}
	if spares != 1 {
		t.Errorf("trace shows %d spare hops, want 1", spares)
	}
	last := tr.Events[len(tr.Events)-1]
	if last.Kind != obs.EvDone || last.Node != 3 {
		t.Errorf("last event = %v at %d, want done at the destination 3", last.Kind, last.Node)
	}
}

// TestFlightRefusals verifies that requests shed before reaching a
// snapshot — admission overload and dead contexts — still leave flight
// records and promoted incidents with the right error class.
func TestFlightRefusals(t *testing.T) {
	set := faults.NewSet(topo.MustCube(4))
	s, err := New(set, Options{Rate: 1e-6, Burst: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	ctx := context.Background()
	if _, err := s.RouteCtx(ctx, 0, 3); err != nil {
		t.Fatalf("first request should pass the burst: %v", err)
	}
	if _, err := s.RouteCtx(ctx, 0, 3); err != ErrOverload {
		t.Fatalf("second request = %v, want ErrOverload", err)
	}
	dead, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.RouteCtx(dead, 0, 3); err == nil {
		t.Fatal("canceled context served")
	}

	want := map[obs.ErrClass]bool{obs.ErrClassOverload: false, obs.ErrClassCanceled: false}
	for _, inc := range s.Flight().Incidents().Incidents {
		if _, ok := want[inc.Record.Err]; ok {
			want[inc.Record.Err] = true
		}
	}
	for class, seen := range want {
		if !seen {
			t.Errorf("no incident with error class %q", class)
		}
	}
}

// TestFlightDeadlineBudget checks the recorded deadline budget: present
// when the caller set one, absent when not.
func TestFlightDeadlineBudget(t *testing.T) {
	set := faults.NewSet(topo.MustCube(4))
	fl := obs.NewFlightRecorder(obs.FlightOptions{})
	s, err := New(set, Options{Flight: fl})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	if _, err := s.RouteCtx(context.Background(), 0, 3); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Hour)
	defer cancel()
	if _, err := s.BatchUnicastCtx(ctx, []Request{{Src: 0, Dst: 3}, {Src: 0, Dst: 5}}); err != nil {
		t.Fatal(err)
	}

	recs := fl.Records(2)
	if len(recs) != 2 {
		t.Fatalf("retained %d records, want 2", len(recs))
	}
	batch, route := recs[0], recs[1]
	if batch.Kind != obs.ReqBatch || batch.Items != 2 {
		t.Fatalf("newest record %+v, want the 2-item batch", batch)
	}
	if batch.DeadlineUS <= 0 {
		t.Errorf("batch with 1h deadline recorded budget %d", batch.DeadlineUS)
	}
	if route.DeadlineUS != 0 {
		t.Errorf("deadline-free route recorded budget %d", route.DeadlineUS)
	}
}

// TestFlightExemplars verifies the histogram exemplar chain: a served
// request's ID lands in its latency bucket's exemplar slot.
func TestFlightExemplars(t *testing.T) {
	reg := obs.NewRegistry()
	set := faults.NewSet(topo.MustCube(4))
	s, err := New(set, Options{Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	r, err := s.RouteCtx(context.Background(), 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	h, ok := reg.Snapshot().Histograms[obs.MetricLatencyRoute]
	if !ok {
		t.Fatal("no latency_route_us histogram")
	}
	found := false
	for _, id := range h.Exemplars {
		if id == r.FlightID {
			found = true
		}
	}
	if !found {
		t.Errorf("exemplars %v do not include request %d", h.Exemplars, r.FlightID)
	}
}

// TestFlightDisabled pins the opt-out: NoFlight leaves the service with
// no recorder, requests carry no ID, and the old latency path works.
func TestFlightDisabled(t *testing.T) {
	set := faults.NewSet(topo.MustCube(4))
	s, err := New(set, Options{NoFlight: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.Flight() != nil {
		t.Fatal("NoFlight service still has a recorder")
	}
	r, err := s.RouteCtx(context.Background(), 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if r.FlightID != 0 {
		t.Errorf("disabled recorder issued ID %d", r.FlightID)
	}
}

// TestRouteOutsideTopology routes from a source and to a destination
// outside a Q4 with the default flight recorder. Each must answer
// Failure with Err set, and the error exit must leave an error:other
// incident whose trace admits at level 0, the level an error exit
// reports: an outside node has no level to read.
func TestRouteOutsideTopology(t *testing.T) {
	for _, p := range [][2]topo.NodeID{{1 << 20, 3}, {3, 1 << 20}} {
		s, err := New(faults.NewSet(topo.MustCube(4)), Options{})
		if err != nil {
			t.Fatal(err)
		}
		r, err := s.RouteCtx(context.Background(), p[0], p[1])
		s.Close()
		if err != nil {
			t.Fatalf("%v: %v", p, err)
		}
		if r.Outcome != core.Failure || r.Err == nil {
			t.Fatalf("%v: outcome %v, err %v; want failure with an error", p, r.Outcome, r.Err)
		}
		inc := s.Flight().Incidents().Incidents
		if len(inc) != 1 || inc[0].Reason != "error:other" || inc[0].Trace == nil {
			t.Fatalf("%v: incidents %+v, want one error:other with a trace", p, inc)
		}
		tr := inc[0].Trace
		if tr.RequestID != r.FlightID || len(tr.Events) != 2 || tr.Events[0].Kind != obs.EvAdmit || tr.Events[0].Level != 0 {
			t.Errorf("%v: trace %+v, want admit at level 0 then done, under request %d", p, tr, r.FlightID)
		}
	}
}
