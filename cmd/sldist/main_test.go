package main

import (
	"bytes"
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

func wantLines(t *testing.T, out string, want ...string) {
	t.Helper()
	for _, w := range want {
		if !strings.Contains(out, w) {
			t.Errorf("output missing %q:\n%s", w, out)
		}
	}
}

// TestSyncRunWithKill: synchronous GS stabilizes within n-1 rounds, a
// batch routes, a kill recomputes the levels and a second batch routes.
func TestSyncRunWithKill(t *testing.T) {
	out, code := runCLI(t, "-n", "5", "-faults", "3", "-unicasts", "10", "-kills", "1", "-seed", "7")
	if code != 0 {
		t.Fatalf("exit code %d:\n%s", code, out)
	}
	wantLines(t, out,
		"Q5, 32 nodes, 3 node faults",
		"stabilized at round",
		"(bound n-1 = 4)",
		"batch 0: delivered",
		"killed",
		"batch 1: delivered",
	)
	if strings.Contains(out, "batch 2") {
		t.Errorf("one kill ran more than two batches:\n%s", out)
	}
}

func TestAsyncRun(t *testing.T) {
	out, code := runCLI(t, "-n", "4", "-faults", "2", "-unicasts", "10", "-async")
	if code != 0 {
		t.Fatalf("exit code %d:\n%s", code, out)
	}
	wantLines(t, out, "distributed async GS:", "batch 0: delivered")
	if strings.Contains(out, "stabilized at round") {
		t.Errorf("-async reported synchronous rounds:\n%s", out)
	}
}

func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-bogus"},
		{"-n", "x"},
		{"-n", "0"},
		{"-n", "3", "-faults", "9"},
	} {
		if _, code := runCLI(t, args...); code != 2 {
			t.Errorf("%v: exit code %d, want 2", args, code)
		}
	}
}
