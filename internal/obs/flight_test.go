package obs

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

// TestFlightPackRoundTrip pins the 4-word ring encoding: every field
// within its documented range survives pack/unpack unchanged.
func TestFlightPackRoundTrip(t *testing.T) {
	recs := []FlightRecord{
		{},
		{ID: 1, Kind: ReqRoute, Gen: 1, LatencyUS: 1, Cond: CondCodeC1, Outcome: OutcomeOptimal},
		{
			ID: 1<<64 - 1, Kind: ReqApply, Gen: 0xffffffff,
			Start: 0x7fffffff, LatencyUS: 0xffffffff, DeadlineUS: 0xffffffff,
			Hamming: 0xfff, Hops: 0xfff, Detours: 0xff, Items: 0xffff,
			Cond: CondCodeC3, Outcome: OutcomeFailure, Err: ErrClassOther, Stale: true,
		},
		{
			ID: 42, Kind: ReqBatch, Gen: 9999, Start: 1_700_000_000,
			LatencyUS: 1234, DeadlineUS: 5678, Hamming: 8, Hops: 12,
			Detours: 2, Items: 64, Cond: CondCodeC2, Outcome: OutcomeSuboptimal,
			Err: ErrClassTorn, Stale: true,
		},
	}
	for i, rec := range recs {
		got := unpack(rec.pack())
		if got != rec {
			t.Errorf("record %d: round trip changed\n got %+v\nwant %+v", i, got, rec)
		}
	}
}

// TestFlightPackClamps pins the saturation behavior for out-of-range
// values: clamped, never wrapped.
func TestFlightPackClamps(t *testing.T) {
	rec := FlightRecord{
		ID: 7, Gen: 1 << 40, LatencyUS: 1 << 40, DeadlineUS: -5,
		Hamming: 1 << 20, Hops: -1, Detours: 300, Items: 1 << 20,
	}
	got := unpack(rec.pack())
	if got.Gen != 0xffffffff {
		t.Errorf("Gen = %d, want clamp to 0xffffffff", got.Gen)
	}
	if got.LatencyUS != 0xffffffff {
		t.Errorf("LatencyUS = %d, want clamp to 0xffffffff", got.LatencyUS)
	}
	if got.DeadlineUS != 0 {
		t.Errorf("DeadlineUS = %d, want negative clamped to 0", got.DeadlineUS)
	}
	if got.Hamming != 0xfff || got.Hops != 0 || got.Detours != 0xff || got.Items != 0xffff {
		t.Errorf("counts = H%d/h%d/d%d/i%d, want 4095/0/255/65535",
			got.Hamming, got.Hops, got.Detours, got.Items)
	}
}

// TestFlightEnumText round-trips every enum value through its text form,
// which is what the JSON endpoints rely on.
func TestFlightEnumText(t *testing.T) {
	for k := ReqRoute; k < numReqKinds; k++ {
		b, err := k.MarshalText()
		if err != nil {
			t.Fatalf("kind %d: %v", k, err)
		}
		var back ReqKind
		if err := back.UnmarshalText(b); err != nil || back != k {
			t.Errorf("kind %q: round trip gave %v, %v", b, back, err)
		}
	}
	for e := ErrClassNone; e <= ErrClassUnreachable; e++ {
		b, _ := e.MarshalText()
		var back ErrClass
		if err := back.UnmarshalText(b); err != nil || back != e {
			t.Errorf("err class %q: round trip gave %v, %v", b, back, err)
		}
	}
	for c := CondCodeNone; c <= CondCodeC3; c++ {
		b, _ := c.MarshalText()
		var back CondCode
		if err := back.UnmarshalText(b); err != nil || back != c {
			t.Errorf("cond %q: round trip gave %v, %v", b, back, err)
		}
	}
	for o := OutcomeNone; o <= OutcomeFailure; o++ {
		b, _ := o.MarshalText()
		var back OutcomeCode
		if err := back.UnmarshalText(b); err != nil || back != o {
			t.Errorf("outcome %q: round trip gave %v, %v", b, back, err)
		}
	}
	var k ReqKind
	if err := k.UnmarshalText([]byte("bogus")); err == nil {
		t.Error("UnmarshalText accepted bogus kind")
	}
}

// TestFlightAnomaly pins the promotion triggers and their precedence.
func TestFlightAnomaly(t *testing.T) {
	f := NewFlightRecorder(FlightOptions{SlowRouteUS: 100})
	cases := []struct {
		rec  FlightRecord
		want string
	}{
		{FlightRecord{Kind: ReqRoute, Outcome: OutcomeOptimal, Hamming: 3, Hops: 3}, ""},
		{FlightRecord{Kind: ReqRoute, Err: ErrClassOverload}, "error:overload"},
		{FlightRecord{Kind: ReqRoute, Err: ErrClassTorn, Outcome: OutcomeFailure}, "error:torn"},
		{FlightRecord{Kind: ReqRoute, Err: ErrClassUnreachable, Outcome: OutcomeFailure}, "error:unreachable"},
		{FlightRecord{Kind: ReqRoute, Outcome: OutcomeFailure, Hamming: 3}, "route-failure"},
		{FlightRecord{Kind: ReqRoute, Outcome: OutcomeSuboptimal, Hamming: 3, Hops: 5, Detours: 1}, "non-minimal"},
		{FlightRecord{Kind: ReqRoute, Outcome: OutcomeOptimal, Hamming: 3, Hops: 4}, "non-minimal"},
		{FlightRecord{Kind: ReqRoute, Outcome: OutcomeOptimal, Hamming: 3, Hops: 3, LatencyUS: 100}, "slow"},
		{FlightRecord{Kind: ReqBatch, LatencyUS: 100}, ""}, // batch threshold is the 250ms default
	}
	for i, c := range cases {
		if got, _ := f.anomaly(&c.rec); got != c.want {
			t.Errorf("case %d: anomaly = %q, want %q", i, got, c.want)
		}
	}
}

// TestFlightPromotionThrottle pins the per-class promotion gate: one
// promotion per anomaly class per gap, independent classes unaffected,
// and a negative gap disables throttling.
func TestFlightPromotionThrottle(t *testing.T) {
	f := NewFlightRecorder(FlightOptions{})
	f.promoteGapUS = 60_000_000 // 1min: first only
	rec := FlightRecord{ID: 1, Err: ErrClassOverload}
	if r := f.Record(&rec); r != "error:overload" {
		t.Fatalf("first overload = %q, want promoted", r)
	}
	rec2 := FlightRecord{ID: 2, Err: ErrClassOverload}
	if r := f.Record(&rec2); r != "" {
		t.Fatalf("second overload = %q, want throttled", r)
	}
	rec3 := FlightRecord{ID: 3, Outcome: OutcomeFailure}
	if r := f.Record(&rec3); r != "route-failure" {
		t.Fatalf("failure = %q, want promoted (independent class)", r)
	}

	un := NewFlightRecorder(FlightOptions{})
	un.promoteGapUS = -1
	for i := 1; i <= 3; i++ {
		rec := FlightRecord{ID: uint64(i), Err: ErrClassOverload}
		if r := un.Record(&rec); r != "error:overload" {
			t.Fatalf("unthrottled record %d = %q, want promoted", i, r)
		}
	}
}

// TestFlightRecorderBasic exercises record/snapshot ordering and bounds.
func TestFlightRecorderBasic(t *testing.T) {
	reg := NewRegistry()
	f := NewFlightRecorder(FlightOptions{Records: 64, Incidents: 4, Registry: reg})
	for i := 0; i < 50; i++ {
		id := f.NextID()
		rec := FlightRecord{ID: id, Kind: ReqRoute, Gen: 3, LatencyUS: int64(i), Hamming: 2, Hops: 2, Outcome: OutcomeOptimal}
		if reason := f.Record(&rec); reason != "" {
			t.Fatalf("healthy record %d flagged %q", id, reason)
		}
	}
	s := f.Snapshot(0)
	if s.Issued != 50 {
		t.Errorf("Issued = %d, want 50", s.Issued)
	}
	if s.Capacity != 64 {
		t.Errorf("Capacity = %d, want 64", s.Capacity)
	}
	if len(s.Records) != 50 {
		t.Errorf("retained %d records, want 50", len(s.Records))
	}
	for i := 1; i < len(s.Records); i++ {
		if s.Records[i-1].ID <= s.Records[i].ID {
			t.Fatalf("records not newest-first at %d: %d then %d", i, s.Records[i-1].ID, s.Records[i].ID)
		}
	}
	if got := f.Snapshot(5); len(got.Records) != 5 || got.Records[0].ID != 50 {
		t.Errorf("Snapshot(5) = %d records starting %d, want 5 starting 50", len(got.Records), got.Records[0].ID)
	}
	if got := reg.Snapshot().Counters[MetricFlightRecords]; got != 50 {
		t.Errorf("%s = %d, want 50", MetricFlightRecords, got)
	}
}

// TestFlightIncidentsBounded pins the incident buffer semantics: Total
// counts every promotion, the buffer keeps only the newest cap entries.
func TestFlightIncidentsBounded(t *testing.T) {
	f := NewFlightRecorder(FlightOptions{Incidents: 4})
	for i := 1; i <= 10; i++ {
		rec := FlightRecord{ID: uint64(i), Err: ErrClassOverload}
		f.Promote(&rec, "error:overload", nil)
	}
	s := f.Incidents()
	if s.Total != 10 {
		t.Errorf("Total = %d, want 10", s.Total)
	}
	if s.Capacity != 4 || len(s.Incidents) != 4 {
		t.Fatalf("retained %d/%d, want 4/4", len(s.Incidents), s.Capacity)
	}
	for i, want := range []uint64{10, 9, 8, 7} {
		if s.Incidents[i].Record.ID != want {
			t.Errorf("incident %d: ID = %d, want %d", i, s.Incidents[i].Record.ID, want)
		}
		if s.Incidents[i].Seq != want {
			t.Errorf("incident %d: Seq = %d, want %d", i, s.Incidents[i].Seq, want)
		}
	}
}

// TestFlightNil verifies the whole API is a no-op on a nil recorder, so
// callers never need to branch.
func TestFlightNil(t *testing.T) {
	var f *FlightRecorder
	if id := f.NextID(); id != 0 {
		t.Errorf("nil NextID = %d", id)
	}
	if r := f.Record(&FlightRecord{Err: ErrClassOverload}); r != "" {
		t.Errorf("nil Record = %q", r)
	}
	f.Promote(&FlightRecord{}, "x", nil)
	if got := f.Records(0); got != nil {
		t.Errorf("nil Records = %v", got)
	}
	if s := f.Snapshot(0); s == nil || s.Records == nil || len(s.Records) != 0 {
		t.Errorf("nil Snapshot = %+v", s)
	}
	if s := f.Incidents(); s == nil || s.Incidents == nil || len(s.Incidents) != 0 {
		t.Errorf("nil Incidents = %+v", s)
	}
}

// deriveRecord builds a record whose every field is a pure function of
// its ID, so the hammer readers can verify any slot they observe is
// internally consistent — i.e. the seqlock never exposed a torn write.
func deriveRecord(id uint64) FlightRecord {
	h := int(id % 10)
	d := int(id % 3)
	return FlightRecord{
		ID:         id,
		Kind:       ReqKind(id % 3),
		Gen:        id * 7 % 100000,
		Start:      int64(id % 100000),
		LatencyUS:  int64(id % 49999),
		DeadlineUS: int64(id % 997),
		Hamming:    h,
		Hops:       h + 2*d,
		Detours:    d,
		Items:      int(id % 100),
		Cond:       CondCode(id % 4),
		Outcome:    OutcomeCode(id % 4),
		Err:        ErrClass(id % 8),
		Stale:      id%2 == 0,
	}
}

// TestFlightRecorderHammer drives many writers over a deliberately tiny
// ring (maximum wrap pressure) while readers continuously snapshot.
// Every record a reader observes must equal deriveRecord(its ID) — a
// single mismatched field means the seqlock leaked a torn write. Run
// with -race this also proves the ring is data-race-free.
func TestFlightRecorderHammer(t *testing.T) {
	f := NewFlightRecorder(FlightOptions{Records: 64})
	const (
		writers      = 8
		readers      = 4
		perWriter    = 20000
		readsPerGoro = 400
	)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				rec := deriveRecord(f.NextID())
				f.Record(&rec)
			}
		}()
	}
	errs := make(chan error, readers)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < readsPerGoro; i++ {
				for _, rec := range f.Records(0) {
					if want := deriveRecord(rec.ID); rec != want {
						select {
						case errs <- fmt.Errorf("torn read for ID %d:\n got %+v\nwant %+v", rec.ID, rec, want):
						default:
						}
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	if err := <-errs; err != nil {
		t.Fatal(err)
	}
	if got := f.ids.Load(); got != writers*perWriter {
		t.Errorf("issued %d IDs, want %d", got, writers*perWriter)
	}
}

// TestIncidentGoldenJSON pins the /debug/incidents wire format against
// a golden file, so the JSON surface (field names, enum spellings,
// omitempty behavior, trace embedding) cannot drift silently. Regenerate
// with UPDATE_GOLDEN=1 go test ./internal/obs -run IncidentGolden.
func TestIncidentGoldenJSON(t *testing.T) {
	f := NewFlightRecorder(FlightOptions{Incidents: 8})
	rec := FlightRecord{
		ID: 17, Kind: ReqRoute, Gen: 4, Start: 1700000000,
		LatencyUS: 321, DeadlineUS: 250000, Hamming: 2, Hops: 4,
		Detours: 1, Items: 1, Cond: CondCodeC3, Outcome: OutcomeSuboptimal,
		Stale: true,
	}
	trace := &RouteTrace{
		Source: 0, Dest: 3, Hamming: 2, RequestID: 17, Generation: 4,
		Cond: "C3", Outcome: "suboptimal", PathLen: 4, Stretch: 2,
		Events: []RouteEvent{
			{Kind: EvAdmit, Node: 0, Hamming: 2, Level: 1, Cond: "C3", Outcome: "suboptimal"},
			{Kind: EvHop, Node: 4, From: 0, Dim: 2, Spare: true, Level: 4},
			{Kind: EvHop, Node: 5, From: 4, Dim: 0, Level: 4},
			{Kind: EvHop, Node: 7, From: 5, Dim: 1, Level: 4},
			{Kind: EvHop, Node: 3, From: 7, Dim: 2, Level: 4},
			{Kind: EvDone, Node: 3, Cond: "C3", Outcome: "suboptimal"},
		},
	}
	f.Promote(&rec, "non-minimal", trace)
	s := f.Incidents()
	// Promotion wall time is the one nondeterministic field.
	s.Incidents[0].AtUS = 0

	got, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')

	golden := filepath.Join("testdata", "incident.golden.json")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (regenerate with UPDATE_GOLDEN=1)", err)
	}
	if string(got) != string(want) {
		t.Errorf("incident JSON drifted from %s:\n got:\n%s\nwant:\n%s", golden, got, want)
	}
}
