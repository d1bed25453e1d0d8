package main

import (
	"encoding/json"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	safecube "repro"
	"repro/internal/loadgen"
)

func TestParseMix(t *testing.T) {
	m, err := parseMix("route:8, batch:1 ,routeall:1")
	if err != nil {
		t.Fatal(err)
	}
	if m.Route != 8 || m.Batch != 1 || m.RouteAll != 1 {
		t.Fatalf("mix %+v", m)
	}
	if m, err = parseMix("route"); err != nil || m.Route != 1 {
		t.Fatalf("bare kind: %+v, %v", m, err)
	}
	for _, bad := range []string{"explode:1", "route:x", "route:-1", ""} {
		if _, err := parseMix(bad); err == nil {
			t.Errorf("parseMix(%q) accepted", bad)
		}
	}
}

// smoke runs slload with args, which gate the run with -min-ok (and
// -only-ok), and fails unless the run meets its gate and exits 0.
func smoke(t *testing.T, args ...string) {
	t.Helper()
	if code := run(append(args, "-o", os.DevNull), os.Stdout, os.Stderr); code != 0 {
		t.Fatalf("slload %s: exit %d, want 0", strings.Join(args, " "), code)
	}
}

// TestRunInProcess: a tiny in-process run with churn writes a valid
// report and honors -min-ok in both directions, and the load smoke (a
// 2 s churn storm on Q8) completes at least 500 requests OK.
func TestRunInProcess(t *testing.T) {
	out := filepath.Join(t.TempDir(), "report.json")
	code := run([]string{
		"-n", "6", "-workers", "2", "-duration", "100ms", "-warmup", "10ms",
		"-mix", "route:8,batch:1,routeall:1", "-batch", "4",
		"-churn", "5ms", "-victims", "4", "-faults", "2",
		"-min-ok", "1", "-o", out,
	}, os.Stdout, os.Stderr)
	if code != 0 {
		t.Fatalf("exit %d, want 0", code)
	}
	raw, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var rep map[string]any
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatalf("bad report JSON: %v", err)
	}
	lat, _ := rep["latency"].(map[string]any)
	if lat == nil || lat["count"].(float64) <= 0 {
		t.Fatalf("report has no latency digest: %v", rep)
	}
	if rep["churn_events"].(float64) <= 0 {
		t.Fatal("report recorded no churn events")
	}

	// An unreachable -min-ok fails the run.
	code = run([]string{
		"-n", "4", "-workers", "1", "-duration", "20ms", "-warmup", "0s",
		"-min-ok", "1000000000",
	}, os.Stdout, os.Stderr)
	if code != 1 {
		t.Fatalf("exit %d, want 1 for unmet -min-ok", code)
	}

	smoke(t, "-n", "8", "-workers", "4", "-duration", "2s", "-warmup", "200ms",
		"-mix", "route:8,batch:1,routeall:1", "-churn", "2ms", "-victims", "4",
		"-deadline", "1s", "-min-ok", "500")
}

// TestRunScenario: -scenario replays the full seeded schedule in-process
// (paced by -churn, remainder drained at window close) and reports the
// profile label, and every profile's 1 s run on Q6 completes at least
// 200 requests OK.
func TestRunScenario(t *testing.T) {
	out := filepath.Join(t.TempDir(), "report.json")
	code := run([]string{
		"-n", "5", "-workers", "2", "-duration", "80ms", "-warmup", "0s",
		"-scenario", "rolling", "-waves", "1", "-seed", "7",
		"-min-ok", "1", "-o", out,
	}, os.Stdout, os.Stderr)
	if code != 0 {
		t.Fatalf("exit %d, want 0", code)
	}
	raw, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var rep map[string]any
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatalf("bad report JSON: %v", err)
	}
	cfg, _ := rep["config"].(map[string]any)
	if cfg == nil || cfg["Scenario"] != "rolling" {
		t.Fatalf("report config lacks scenario label: %v", cfg)
	}
	// One rolling wave over Q5 fails and recovers every node once.
	if got := rep["churn_events"].(float64); got != 64 {
		t.Fatalf("replayed %v events, want 64 (2 * 32 nodes)", got)
	}
	if errs := rep["churn_errors"].(float64); errs != 0 {
		t.Fatalf("%v schedule events failed", errs)
	}

	// An unknown profile is a usage error.
	devnull, _ := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	defer devnull.Close()
	if code := run([]string{"-scenario", "explode"}, devnull, devnull); code != 2 {
		t.Fatalf("unknown scenario exit %d, want 2", code)
	}

	for _, profile := range []string{"subcube", "dimcut", "rolling", "flap", "partition"} {
		t.Run(profile, func(t *testing.T) {
			smoke(t, "-n", "6", "-workers", "4", "-duration", "1s", "-warmup", "100ms",
				"-scenario", profile, "-seed", "11", "-deadline", "1s", "-min-ok", "200")
		})
	}
}

// TestRunScenarioDiagnosed: -diagnosed swaps the declared schedule for
// the syndrome-diagnosed one. Within the bound the two are identical,
// so the run replays the same event count with zero errors, and a 1 s
// rolling run on Q6 finishes every request OK under both faulty-tester
// adversaries; past the bound (a default-width subcube on Q6) the
// decode is ambiguous and the run refuses up front.
func TestRunScenarioDiagnosed(t *testing.T) {
	out := filepath.Join(t.TempDir(), "report.json")
	code := run([]string{
		"-n", "5", "-workers", "2", "-duration", "80ms", "-warmup", "0s",
		"-scenario", "rolling", "-waves", "1", "-seed", "7",
		"-diagnosed", "-adversary", "invert",
		"-min-ok", "1", "-o", out,
	}, os.Stdout, os.Stderr)
	if code != 0 {
		t.Fatalf("exit %d, want 0", code)
	}
	raw, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var rep map[string]any
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatalf("bad report JSON: %v", err)
	}
	if got := rep["churn_events"].(float64); got != 64 {
		t.Fatalf("diagnosed replay drove %v events, want 64", got)
	}
	if errs := rep["churn_errors"].(float64); errs != 0 {
		t.Fatalf("%v diagnosed schedule events failed", errs)
	}

	devnull, _ := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	defer devnull.Close()
	if code := run([]string{
		"-n", "6", "-duration", "20ms", "-warmup", "0s",
		"-scenario", "subcube", "-diagnosed",
	}, devnull, devnull); code != 2 {
		t.Fatalf("beyond-bound diagnosed run exit %d, want 2", code)
	}
	if code := run([]string{
		"-n", "5", "-scenario", "rolling", "-diagnosed", "-adversary", "liar",
	}, devnull, devnull); code != 2 {
		t.Fatalf("bad adversary exit %d, want 2", code)
	}

	for _, adv := range []string{"invert", "random"} {
		t.Run(adv, func(t *testing.T) {
			smoke(t, "-n", "6", "-workers", "4", "-duration", "1s", "-warmup", "100ms",
				"-scenario", "rolling", "-diagnosed", "-adversary", adv, "-seed", "11",
				"-deadline", "1s", "-min-ok", "200", "-only-ok")
		})
	}
}

// TestRunWire drives a real wire server on a :0 loopback listener: a
// plain seeded run with the full mix under -only-ok, then a coalesced
// run replaying a correlated-fault scenario as OpFaultDelta frames, both
// gated on an only-OK digest.
func TestRunWire(t *testing.T) {
	c, err := safecube.New(6)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.InjectRandomFaults(3, 4); err != nil {
		t.Fatal(err)
	}
	srv, err := c.Serve(safecube.ServeOptions{NoFlight: true})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ws, err := srv.ServeWire("127.0.0.1:0", safecube.WireOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer ws.Close()

	out := filepath.Join(t.TempDir(), "report.json")
	code := run([]string{
		"-wire", ws.Addr(), "-n", "6", "-seed", "7",
		"-workers", "4", "-duration", "150ms", "-warmup", "20ms",
		"-mix", "route:8,batch:1,routeall:1", "-batch", "4",
		"-deadline", "2s", "-min-ok", "50", "-only-ok", "-o", out,
	}, os.Stdout, os.Stderr)
	if code != 0 {
		t.Fatalf("plain wire run exit %d, want 0", code)
	}
	raw, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var rep map[string]any
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatalf("bad report JSON: %v", err)
	}
	classes, _ := rep["classes"].(map[string]any)
	if len(classes) != 1 || classes["ok"].(float64) < 50 {
		t.Fatalf("-only-ok run finished with classes %v", classes)
	}

	code = run([]string{
		"-wire", ws.Addr(), "-n", "6", "-seed", "7", "-coalesce", "4",
		"-workers", "4", "-duration", "150ms", "-warmup", "20ms",
		"-scenario", "flap", "-deadline", "2s",
		"-min-ok", "50", "-only-ok", "-o", out,
	}, os.Stdout, os.Stderr)
	if code != 0 {
		t.Fatalf("coalesced scenario run exit %d, want 0", code)
	}
	if raw, err = os.ReadFile(out); err != nil {
		t.Fatal(err)
	}
	rep = map[string]any{}
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatalf("bad report JSON: %v", err)
	}
	if rep["churn_events"].(float64) <= 0 {
		t.Fatal("scenario replay streamed no fault-delta frames")
	}
	if rep["churn_errors"].(float64) != 0 {
		t.Fatalf("%v fault-delta frames failed", rep["churn_errors"])
	}

	// The first pool connection dials eagerly, so an unreachable wire
	// address is a startup error, not a run full of failures.
	devnull, _ := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	defer devnull.Close()
	if code := run([]string{"-wire", "127.0.0.1:1", "-n", "6"}, devnull, devnull); code != 2 {
		t.Fatalf("dead wire address exit %d, want 2", code)
	}
}

func TestRunUsageErrors(t *testing.T) {
	devnull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer devnull.Close()
	for _, argv := range [][]string{
		{"-mix", "explode:1"},
		{"-n", "0"},
		{"-explode"},
	} {
		if code := run(argv, devnull, devnull); code != 2 {
			t.Fatalf("run(%v) exit %d, want 2", argv, code)
		}
	}
}

// TestRunRefusesOversizeForRemote: against a remote target, a batch or
// a fan-out past serve.MaxBatchPairs exits 2 and names the limit before
// any connection is made, since slserve would refuse every such
// request. The in-process engine has no limit and runs both.
func TestRunRefusesOversizeForRemote(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	addr := ln.Addr().String()
	stderr := filepath.Join(t.TempDir(), "stderr")
	// The listener never answers, so a run that did connect ends by
	// its deadlines.
	short := []string{"-duration", "100ms", "-warmup", "0", "-deadline", "100ms", "-o", os.DevNull}
	for _, tc := range []struct {
		argv  []string
		limit string
	}{
		{[]string{"-target", "http://" + addr, "-n", "13", "-mix", "routeall:1"}, "limit of 4096 routes"},
		{[]string{"-wire", addr, "-batch", "4097", "-mix", "batch:1"}, "limit of 4096 pairs"},
	} {
		f, err := os.Create(stderr)
		if err != nil {
			t.Fatal(err)
		}
		code := run(append(tc.argv, short...), f, f)
		f.Close()
		if code != 2 {
			t.Errorf("run(%v) exit %d, want 2", tc.argv, code)
		}
		msg, err := os.ReadFile(stderr)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(string(msg), tc.limit) {
			t.Errorf("run(%v) printed %q, want it to name the %s", tc.argv, msg, tc.limit)
		}
	}
	// A dial would have completed its handshake before run returned, so
	// its connection would be waiting here.
	ln.(*net.TCPListener).SetDeadline(time.Now().Add(50 * time.Millisecond))
	if c, err := ln.Accept(); err == nil {
		c.Close()
		t.Fatal("slload connected to the target before refusing the mix")
	}

	smoke(t, "-n", "13", "-mix", "routeall:1", "-workers", "1", "-duration", "50ms", "-warmup", "0", "-min-ok", "1")
	smoke(t, "-n", "6", "-batch", "4097", "-mix", "batch:1", "-workers", "1", "-duration", "50ms", "-warmup", "0", "-min-ok", "1")
}

// TestRunCutsOffSilentServer drives a :0 listener that accepts every
// connection and never answers, over HTTP and over the wire, with no
// -deadline. Each run must return within its window plus
// loadgen.LateGrace, with every request it issued counted in the
// deadline class.
func TestRunCutsOffSilentServer(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var (
		mu    sync.Mutex
		conns []net.Conn
	)
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			conns = append(conns, c)
			mu.Unlock()
		}
	}()
	defer func() {
		ln.Close()
		mu.Lock()
		defer mu.Unlock()
		for _, c := range conns {
			c.Close()
		}
	}()
	addr := ln.Addr().String()
	const window = 200 * time.Millisecond
	for _, target := range [][]string{{"-target", "http://" + addr}, {"-wire", addr}} {
		report := filepath.Join(t.TempDir(), "report.json")
		argv := append(target, "-n", "6", "-workers", "2", "-duration", window.String(), "-warmup", "0", "-o", report)
		start := time.Now()
		code := run(argv, os.Stdout, os.Stderr)
		if took, limit := time.Since(start), window+loadgen.LateGrace+time.Second; took > limit {
			t.Errorf("slload %v returned after %v, want within %v", target, took, limit)
		}
		if code != 0 {
			t.Fatalf("slload %v: exit %d", target, code)
		}
		raw, err := os.ReadFile(report)
		if err != nil {
			t.Fatal(err)
		}
		var rep loadgen.Report
		if err := json.Unmarshal(raw, &rep); err != nil {
			t.Fatal(err)
		}
		if rep.Ops == 0 || rep.Classes[loadgen.ClassDeadline] != rep.Ops {
			t.Errorf("slload %v: %d ops in classes %v, want all in %q", target, rep.Ops, rep.Classes, loadgen.ClassDeadline)
		}
	}
}
