package safecube

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/stats"
	"repro/internal/topo"
)

// TestEmitBenchJSON4 regenerates BENCH_4.json, the committed measurement
// of the concurrent route-serving engine (internal/serve, public Server)
// against a mutex-guarded facade under a churn storm. It shares the
// BENCH_1..3 gate:
//
//	EMIT_BENCH_JSON=1 go test -run TestEmitBenchJSON .
//
// The workload models serving under fault churn: N concurrent clients
// each stream route queries and, in the storm cells, interleave a fault
// report (fail/recover of a node they monitor) every few queries. The
// baseline is what a caller gets without the serving layer: the
// single-goroutine Cube facade behind a sync.Mutex, where every report
// invalidates the level cache and the next query pays the incremental
// repair under the lock, serialized against every other client. The
// Server instead feeds reports through its bounded apply queue to one
// background applier that coalesces them into few repairs and publishes
// immutable snapshots, which queries load with one atomic pointer read
// — so a churn storm degrades route throughput gracefully instead of
// making readers pay for every event.
func TestEmitBenchJSON4(t *testing.T) {
	if os.Getenv("EMIT_BENCH_JSON") == "" {
		t.Skip("set EMIT_BENCH_JSON=1 to regenerate BENCH_4.json")
	}

	const (
		dim           = 12
		initialFaults = 16
		stormEvery    = 3 // in storm cells, every 3rd client op is a fault report
		cell          = 400 * time.Millisecond
	)
	tp := topo.MustCube(dim)

	type entry struct {
		Name         string  `json:"name"`
		Readers      int     `json:"readers"`
		Churn        bool    `json:"churn"`
		RoutesPerSec float64 `json:"routes_per_sec"`
		Routes       int64   `json:"routes"`
	}

	// measure runs `readers` client goroutines for one cell and returns
	// the aggregate number of completed route queries. Each client calls
	// route() and, when storm is set, report() on every stormEvery-th
	// operation (toggling its own monitored node between faulty and
	// recovered, so the schedule is identical for both systems).
	measure := func(readers int, storm bool,
		route func(rng *stats.RNG), report func(victim NodeID, down bool)) int64 {
		var stop atomic.Bool
		var total atomic.Int64
		var wg sync.WaitGroup
		for r := 0; r < readers; r++ {
			victim := NodeID(2000 + 3*r)
			wg.Add(1)
			go func(seed uint64) {
				defer wg.Done()
				rng := stats.NewRNG(seed*7919 + 13)
				n := int64(0)
				down := false
				for i := 0; !stop.Load(); i++ {
					if storm && i%stormEvery == stormEvery-1 {
						report(victim, down)
						down = !down
						continue
					}
					route(rng)
					n++
				}
				total.Add(n)
			}(uint64(r))
		}
		time.Sleep(cell)
		stop.Store(true)
		wg.Wait()
		return total.Load()
	}

	newCube := func() *Cube {
		c := MustNew(dim)
		if err := c.InjectRandomFaults(42, initialFaults); err != nil {
			t.Fatal(err)
		}
		return c
	}

	// Baseline: the plain facade behind one mutex. Reports take the same
	// lock, and the facade's level cache re-converges under it on the
	// next query.
	baseline := func(readers int, storm bool) int64 {
		c := newCube()
		var mu sync.Mutex
		route := func(rng *stats.RNG) {
			src := NodeID(rng.Intn(c.Nodes()))
			dst := NodeID(rng.Intn(c.Nodes()))
			mu.Lock()
			c.Unicast(src, dst)
			mu.Unlock()
		}
		report := func(victim NodeID, down bool) {
			mu.Lock()
			defer mu.Unlock()
			if down {
				_ = c.RecoverNode(victim)
			} else {
				_ = c.FailNode(victim)
			}
		}
		return measure(readers, storm, route, report)
	}

	// Serving engine: lock-free snapshot reads; reports go through the
	// bounded apply queue and are coalesced by the applier.
	serveEngine := func(readers int, storm bool) int64 {
		c := newCube()
		srv, err := c.Serve(ServeOptions{QueueDepth: 64})
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		route := func(rng *stats.RNG) {
			src := NodeID(rng.Intn(c.Nodes()))
			dst := NodeID(rng.Intn(c.Nodes()))
			if _, err := srv.UnicastCtx(context.Background(), src, dst); err != nil {
				t.Error(err)
			}
		}
		report := func(victim NodeID, down bool) {
			if down {
				_ = srv.RecoverNode(victim)
			} else {
				_ = srv.FailNode(victim)
			}
		}
		return measure(readers, storm, route, report)
	}

	var results []entry
	run := func(name string, readers int, storm bool, f func(readers int, storm bool) int64) entry {
		routes := f(readers, storm)
		e := entry{
			Name:         fmt.Sprintf("%s/readers=%d/churn=%v", name, readers, storm),
			Readers:      readers,
			Churn:        storm,
			RoutesPerSec: float64(routes) / cell.Seconds(),
			Routes:       routes,
		}
		results = append(results, e)
		return e
	}

	var base16, serve16 entry
	for _, readers := range []int{1, 4, 16} {
		for _, storm := range []bool{false, true} {
			b := run("facade-mutex", readers, storm, baseline)
			s := run("serve", readers, storm, serveEngine)
			if readers == 16 && storm {
				base16, serve16 = b, s
			}
		}
	}

	speedup := serve16.RoutesPerSec / base16.RoutesPerSec
	report := struct {
		Config         string  `json:"config"`
		Claim          string  `json:"claim"`
		Speedup16Churn float64 `json:"speedup_16_readers_churn"`
		Results        []entry `json:"results"`
	}{
		Config: fmt.Sprintf("Q%d (%d nodes), %d initial faults, churn storm = every %dth client op "+
			"is a node fail/recover report, %s per cell, GOMAXPROCS=%s", dim, tp.Nodes(),
			initialFaults, stormEvery, cell, strconv.Itoa(runtime.GOMAXPROCS(0))),
		Claim: fmt.Sprintf("with 16 concurrent clients under a churn storm, the snapshot-serving "+
			"engine routes %.0f req/s where the mutex-guarded facade routes %.0f req/s (%.1fx): "+
			"queries load an immutable level snapshot with one atomic pointer read while the "+
			"applier coalesces queued fault reports into few incremental repairs, instead of "+
			"every report invalidating a shared cache that the next query must repair under "+
			"the lock", serve16.RoutesPerSec, base16.RoutesPerSec, speedup),
		Speedup16Churn: speedup,
		Results:        results,
	}
	if speedup < 3 {
		t.Errorf("serve/facade speedup at 16 readers under churn = %.2fx, want >= 3x", speedup)
	}

	f, err := os.Create("BENCH_4.json")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(report); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote BENCH_4.json: speedup %.2fx", speedup)
}
