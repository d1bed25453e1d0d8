package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func runCLI(t *testing.T, args ...string) (string, int) {
	t.Helper()
	var buf bytes.Buffer
	code, err := run(args, &buf)
	if err != nil && code != 2 {
		t.Fatalf("unexpected error with code %d: %v", code, err)
	}
	return buf.String(), code
}

func TestPromDump(t *testing.T) {
	out, code := runCLI(t,
		"-n", "4", "-faults", "0011,0100,0110,1001", "-pairs", "16", "-format", "prom")
	if code != 0 {
		t.Fatalf("exit code %d:\n%s", code, out)
	}
	for _, want := range []string{
		// GS rounds and message cost from the distributed engine.
		"stabilized in 2 rounds",
		"safecube_simnet_gs_last_rounds 2",
		"safecube_simnet_gs_runs_total 1",
		"safecube_gs_trace_max_link_messages",
		// Outcome counters from the sequential sweep.
		"safecube_route_unicasts_total 16",
		"# TYPE safecube_route_outcome_optimal_total counter",
		// Level cache: one miss to compute, hits for every admission.
		"safecube_levels_cache_misses_total 1",
		// Histograms export cumulative buckets.
		`safecube_route_path_hops_bucket{le="+Inf"}`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prom output missing %q", want)
		}
	}
	if strings.Contains(out, "{") && !strings.Contains(out, `le="`) &&
		!strings.Contains(out, `round="`) {
		t.Errorf("unexpected label syntax:\n%s", out)
	}
}

func TestJSONDump(t *testing.T) {
	out, code := runCLI(t,
		"-n", "5", "-random", "3", "-seed", "7", "-pairs", "20", "-format", "json")
	if code != 0 {
		t.Fatalf("exit code %d:\n%s", code, out)
	}
	// Strip the leading "# ..." comment lines, then the rest must be one
	// valid JSON document.
	body := out
	for strings.HasPrefix(body, "#") {
		nl := strings.IndexByte(body, '\n')
		body = body[nl+1:]
	}
	var snap struct {
		Counters map[string]int64 `json:"counters"`
		GS       *struct {
			Kind     string         `json:"kind"`
			Messages int            `json:"messages"`
			PerLink  map[string]int `json:"per_link"`
		} `json:"gs"`
	}
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatalf("JSON dump does not parse: %v\n%s", err, body)
	}
	if got := snap.Counters["route_unicasts_total"]; got != 20 {
		t.Errorf("route_unicasts_total = %d, want 20", got)
	}
	if got, sent := snap.Counters["simnet_unicasts_total"], snap.Counters["simnet_unicast_messages_total"]; got != 20 || sent <= 0 {
		t.Errorf("simnet unicasts = %d (want 20), messages = %d (want > 0)", got, sent)
	}
	if snap.GS == nil || snap.GS.Kind != "simnet-sync" {
		t.Fatalf("last GS trace should be the distributed run, got %+v", snap.GS)
	}
	if snap.GS.Messages <= 0 || len(snap.GS.PerLink) == 0 {
		t.Errorf("distributed GS trace missing message accounting: %+v", snap.GS)
	}
	total := 0
	for _, v := range snap.GS.PerLink {
		total += v
	}
	if total != snap.GS.Messages {
		t.Errorf("per-link counts sum to %d, want %d", total, snap.GS.Messages)
	}
}

// TestGHMetricsCLI runs the sweep over a generalized hypercube: the
// same distributed-GS, batch and sequential phases feed the registry,
// except per-link GS message counts, which are a binary-only metric.
func TestGHMetricsCLI(t *testing.T) {
	out, code := runCLI(t,
		"-radix", "2x3x2", "-faults", "011,100,111,121", "-pairs", "16", "-format", "prom")
	if code != 0 {
		t.Fatalf("exit code %d:\n%s", code, out)
	}
	for _, want := range []string{
		"# GH(2x3x2), 12 nodes, 4 node faults; swept 16 pairs",
		"safecube_route_unicasts_total 16",
		"safecube_simnet_gs_runs_total 1",
		"safecube_levels_cache_misses_total 1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prom output missing %q:\n%s", want, out)
		}
	}

	out, code = runCLI(t,
		"-radix", "2x3x2", "-faults", "011,100,111,121", "-pairs", "16", "-format", "json")
	if code != 0 {
		t.Fatalf("exit code %d:\n%s", code, out)
	}
	body := out
	for strings.HasPrefix(body, "#") {
		nl := strings.IndexByte(body, '\n')
		body = body[nl+1:]
	}
	var snap struct {
		Counters map[string]int64 `json:"counters"`
		GS       *struct {
			Kind     string         `json:"kind"`
			Messages int            `json:"messages"`
			PerLink  map[string]int `json:"per_link"`
		} `json:"gs"`
	}
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatalf("JSON dump does not parse: %v\n%s", err, body)
	}
	if got := snap.Counters["route_unicasts_total"]; got != 16 {
		t.Errorf("route_unicasts_total = %d, want 16", got)
	}
	if snap.GS == nil || snap.GS.Kind != "simnet-sync" {
		t.Fatalf("last GS trace should be the distributed run, got %+v", snap.GS)
	}
	if snap.GS.Messages <= 0 {
		t.Errorf("distributed GS trace missing message total: %+v", snap.GS)
	}
	if len(snap.GS.PerLink) != 0 {
		t.Errorf("per-link GS accounting is binary-only, got %v", snap.GS.PerLink)
	}
}

func TestBadFlags(t *testing.T) {
	if _, code := runCLI(t, "-format", "xml"); code != 2 {
		t.Errorf("bad -format: exit %d, want 2", code)
	}
	if _, code := runCLI(t, "-n", "4", "-faults", "banana"); code != 2 {
		t.Errorf("bad fault address: exit %d, want 2", code)
	}
	if _, code := runCLI(t, "-radix", "1x2"); code != 2 {
		t.Errorf("bad radix: exit %d, want 2", code)
	}
	if _, code := runCLI(t, "-listen", "127.0.0.1:0"); code != 2 {
		t.Errorf("-listen is not a flag: exit %d, want 2", code)
	}
}
