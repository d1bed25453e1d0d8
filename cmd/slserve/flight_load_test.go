package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	safecube "repro"
	"repro/internal/loadgen"
	"repro/internal/obs"
)

// TestFlightUnderHTTPLoad runs the whole flight pipeline end to end on a
// :0 listener: the recorder is on by default, request IDs are allocated
// on the serving path, and /debug/flight stays readable and well formed
// while load runs and after it ends.
func TestFlightUnderHTTPLoad(t *testing.T) {
	c := safecube.MustNew(6)
	if err := c.InjectRandomFaults(1, 4); err != nil {
		t.Fatal(err)
	}
	reg := safecube.NewRegistry()
	srv, err := c.Serve(safecube.ServeOptions{Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(newHandler(srv, c, reg, handlerOpts{queueCap: 64}))
	t.Cleanup(func() { ts.Close(); srv.Close() })

	done := make(chan *loadgen.Report, 1)
	go func() {
		target := loadgen.HTTPTarget{
			Base:   ts.URL,
			N:      c.Nodes(),
			Format: func(a int) string { return c.Format(safecube.NodeID(a)) },
		}
		done <- loadgen.Run(target, loadgen.Config{
			Seed:     7,
			Workers:  2,
			Duration: 200 * time.Millisecond,
			Warmup:   20 * time.Millisecond,
			Deadline: time.Second,
			Mix:      loadgen.Mix{Route: 1},
		})
	}()

	// Scrape while the load runs: poll until the first record shows.
	deadline := time.Now().Add(5 * time.Second)
	snap := scrapeFlight(t, ts.URL)
	for len(snap.Records) == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
		snap = scrapeFlight(t, ts.URL)
	}
	checkFlight(t, "during the load", snap)

	rep := <-done
	if ok := rep.Classes[loadgen.ClassOK]; ok < 50 {
		t.Fatalf("%d requests answered OK, want at least 50 (classes %v)", ok, rep.Classes)
	}
	checkFlight(t, "after the load", scrapeFlight(t, ts.URL))
}

// scrapeFlight decodes /debug/flight; the decoder rejects unknown enum
// spellings.
func scrapeFlight(t *testing.T, base string) obs.FlightSnapshot {
	t.Helper()
	resp, err := http.Get(base + "/debug/flight")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/flight: status %d", resp.StatusCode)
	}
	var snap obs.FlightSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatalf("/debug/flight: bad snapshot JSON: %v", err)
	}
	return snap
}

// checkFlight fails unless snap holds well-formed request records:
// some issued, some retained, every ID nonzero, and no delivered route
// shorter than its Hamming distance.
func checkFlight(t *testing.T, when string, snap obs.FlightSnapshot) {
	t.Helper()
	if snap.Issued == 0 || len(snap.Records) == 0 {
		t.Fatalf("%s: no flight records (issued %d, retained %d)", when, snap.Issued, len(snap.Records))
	}
	for i, rec := range snap.Records {
		if rec.ID == 0 {
			t.Fatalf("%s: record %d has ID 0", when, i)
		}
		if rec.Hops < rec.Hamming && rec.Outcome != obs.OutcomeFailure && rec.Outcome != obs.OutcomeNone {
			t.Fatalf("%s: record %d delivered in %d hops over distance %d", when, i, rec.Hops, rec.Hamming)
		}
	}
}
