package main

import (
	"encoding/binary"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// The machine-speed probe. The shared 2-vCPU VMs this benchmark runs on
// drift: every workload, and even the server's CPU time per route,
// slowed by up to 1.5x for minutes at a time while other tenants were
// busy, and moved by several percent from one second to the next. A
// fixed job owned by the benchmark, timed in the same run, moves with
// them, so timings scaled by it hold still while the program's own
// speed still shows. The job resembles the served work: two client
// goroutines ping-pong small frames over loopback TCP with two server
// goroutines, and each answer costs random reads in a 1 MiB table and a
// few small allocations. It runs no program code, so it measures the
// same on every commit.

// refProbeRate is the probe rate, in round trips per second, that the
// metrics are scaled to: its median on the 2-vCPU VM the bounds in
// BENCHMARK.json were set on.
const refProbeRate = 88000.0

// probeTime is how long each probe runs. A run probes before and after
// its server start-ups and in every pause between the window's slices.
const probeTime = 200 * time.Millisecond

// loadExp is the power of the probed speed that quantities measured
// under load are scaled by. Over three sets of ten runs of every
// workload, taken in different hours, throughput, latency and CPU time
// per route moved as about the 1.5th power of the probe rate: with the
// client and server saturating both vCPUs, a slowdown compounds as
// queueing. Fault visibility and set-up moved as its first power and
// are scaled by that.
const loadExp = 1.5

// probeRate runs the job for d and returns its round trips per second.
func probeRate(d time.Duration) (float64, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	table := make([]uint8, 1<<20)
	for i := range table {
		table[i] = uint8(i * 2654435761 >> 13)
	}
	const pairs = 2
	var servers, clients sync.WaitGroup
	defer servers.Wait()
	for p := 0; p < pairs; p++ {
		servers.Add(1)
		go func() {
			defer servers.Done()
			c, err := ln.Accept()
			if err != nil {
				return
			}
			defer c.Close()
			var buf [16]byte
			var keep [][]byte
			for {
				if _, err := io.ReadFull(c, buf[:]); err != nil {
					return
				}
				x := binary.LittleEndian.Uint64(buf[:])
				sum := uint64(0)
				for k := 0; k < 256; k++ {
					x = x*6364136223846793005 + 1442695040888963407
					sum += uint64(table[x>>44])
				}
				keep = keep[:0]
				for k := 0; k < 16; k++ {
					keep = append(keep, make([]byte, 24+k))
				}
				binary.LittleEndian.PutUint64(buf[8:], sum+uint64(len(keep)))
				if _, err := c.Write(buf[:]); err != nil {
					return
				}
			}
		}()
	}
	var trips atomic.Int64
	var firstErr error
	var errOnce sync.Once
	stop := time.Now().Add(d)
	start := time.Now()
	for p := 0; p < pairs; p++ {
		clients.Add(1)
		go func(p int) {
			defer clients.Done()
			c, err := net.Dial("tcp", ln.Addr().String())
			if err != nil {
				errOnce.Do(func() { firstErr = err })
				return
			}
			defer c.Close()
			var buf [16]byte
			for i := uint64(p); time.Now().Before(stop); i += pairs {
				binary.LittleEndian.PutUint64(buf[:], i)
				if _, err := c.Write(buf[:]); err != nil {
					errOnce.Do(func() { firstErr = err })
					return
				}
				if _, err := io.ReadFull(c, buf[:]); err != nil {
					errOnce.Do(func() { firstErr = err })
					return
				}
				trips.Add(1)
			}
		}(p)
	}
	clients.Wait()
	elapsed := time.Since(start)
	// Closing the listener releases a server still waiting in Accept
	// for a client whose dial failed.
	ln.Close()
	if firstErr != nil {
		return 0, firstErr
	}
	return float64(trips.Load()) / elapsed.Seconds(), nil
}
