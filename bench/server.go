package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/topo"
	"repro/internal/wire"
)

// server is one slserve subprocess.
type server struct {
	cmd      *exec.Cmd
	httpBase string
	wireAddr string
	done     chan struct{} // closed once the process has been waited for

	mu     sync.Mutex
	stderr bytes.Buffer
}

func (s *server) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stderr.Write(p)
}

func (s *server) stderrText() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return strings.TrimSpace(s.stderr.String())
}

func (s *server) pid() int { return s.cmd.Process.Pid }

// routeURL is the /route query for pair q; slserve takes addresses as
// bit strings.
func (s *server) routeURL(cube *topo.Cube, q wire.Pair) string {
	return s.httpBase + "/route?src=" + cube.Format(topo.NodeID(q.Src)) + "&dst=" + cube.Format(topo.NodeID(q.Dst))
}

// servers is every slserve process started and not yet waited for, so
// that a terminating signal can stop them before the benchmark exits.
var servers = liveSet{m: map[*server]struct{}{}}

type liveSet struct {
	mu     sync.Mutex
	m      map[*server]struct{}
	closed bool // set by killAll; later servers are killed on arrival
}

func (l *liveSet) add(s *server) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		_ = s.cmd.Process.Kill()
		return
	}
	l.m[s] = struct{}{}
}

func (l *liveSet) remove(s *server) {
	l.mu.Lock()
	defer l.mu.Unlock()
	delete(l.m, s)
}

// killAll kills every live server and waits for each to exit.
func (l *liveSet) killAll() {
	l.mu.Lock()
	l.closed = true
	var all []*server
	for s := range l.m {
		all = append(all, s)
	}
	l.mu.Unlock()
	for _, s := range all {
		s.kill()
	}
}

var errPortTaken = errors.New("reserved HTTP port was taken")

// startServer launches slserve with args and returns once both its wire
// Ping and its /healthz answer, together with the time from exec to that
// point. slserve reports -listen as given rather than the address it
// bound, so the HTTP port is reserved here and the start retried if
// another process takes it first; the wire address (":0") is parsed from
// the start-up line.
func startServer(bin string, args []string) (*server, time.Duration, error) {
	for attempt := 0; attempt < 5; attempt++ {
		s, d, err := tryStart(bin, args)
		if !errors.Is(err, errPortTaken) {
			return s, d, err
		}
	}
	return nil, 0, errors.New("slserve: no free HTTP port after 5 attempts")
}

func freePort() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := ln.Addr().String()
	return addr, ln.Close()
}

func tryStart(bin string, args []string) (*server, time.Duration, error) {
	httpAddr, err := freePort()
	if err != nil {
		return nil, 0, err
	}
	cmd := exec.Command(bin, append(args, "-listen", httpAddr, "-wire-addr", "127.0.0.1:0")...)
	s := &server{cmd: cmd, httpBase: "http://" + httpAddr, done: make(chan struct{})}
	cmd.Stderr = s
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, 0, err
	}
	wireCh := make(chan string, 1)
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, err
	}
	servers.add(s)
	go func() {
		sc := bufio.NewScanner(out)
		for sc.Scan() {
			if i := strings.LastIndex(sc.Text(), "wire on "); i >= 0 {
				select {
				case wireCh <- strings.TrimSpace(sc.Text()[i+len("wire on "):]):
				default:
				}
			}
		}
		_ = cmd.Wait()
		servers.remove(s)
		close(s.done)
	}()

	hc := &http.Client{Timeout: time.Second, Transport: &http.Transport{}}
	defer hc.CloseIdleConnections()
	pinged, healthy := false, false
	for deadline := start.Add(2 * time.Minute); !pinged || !healthy; {
		select {
		case <-s.done:
			msg := s.stderrText()
			if strings.Contains(msg, "address already in use") {
				return nil, 0, errPortTaken
			}
			return nil, 0, fmt.Errorf("slserve exited during start-up: %s", msg)
		case a := <-wireCh:
			s.wireAddr = a
		default:
		}
		if time.Now().After(deadline) {
			s.kill()
			return nil, 0, errors.New("slserve not ready after 2m")
		}
		if !pinged && s.wireAddr != "" {
			pinged = ping(s.wireAddr)
		}
		if !healthy {
			healthy = getOK(hc, s.httpBase+"/healthz")
		}
		if !pinged || !healthy {
			time.Sleep(time.Millisecond)
		}
	}
	return s, time.Since(start), nil
}

func ping(addr string) bool {
	c, err := wire.Dial(addr, wire.ClientOptions{DialTimeout: time.Second})
	if err != nil {
		return false
	}
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	_, err = c.Ping(ctx)
	return err == nil
}

func getOK(hc *http.Client, url string) bool {
	resp, err := hc.Get(url)
	if err != nil {
		return false
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

// stop asks the server to drain and waits for it to exit, killing it
// if the drain hangs.
func (s *server) stop() {
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.done:
	case <-time.After(15 * time.Second):
		s.kill()
	}
}

func (s *server) kill() {
	_ = s.cmd.Process.Kill()
	<-s.done
}

// ticksPerSecond is USER_HZ, the unit of /proc/PID/stat CPU times,
// which Linux fixes at 100 for user space.
const ticksPerSecond = 100

// cpuTicks returns the process's user+system CPU time in clock ticks.
func cpuTicks(pid int) (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name may hold spaces; the numeric fields follow the
	// last ')'. utime and stime are fields 14 and 15 of the whole line.
	s := string(b)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return ut + st, nil
}

// peakRSSMB returns the process's resident-set high-water mark (VmHWM).
func peakRSSMB(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// scrapeMetrics reads the unlabelled series of the server's Prometheus
// /metrics page.
func scrapeMetrics(hc *http.Client, base string) (map[string]float64, error) {
	resp, err := hc.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") || strings.Contains(line, "{") {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		if v, err := strconv.ParseFloat(strings.TrimSpace(val), 64); err == nil {
			out[name] = v
		}
	}
	return out, sc.Err()
}

// memStats reads the Go allocator counters the server publishes on
// /debug/vars (mounted with -pprof).
func memStats(hc *http.Client, base string) (mallocs, numGC float64, err error) {
	resp, err := hc.Get(base + "/debug/vars")
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	var v struct {
		Memstats struct {
			Mallocs float64
			NumGC   float64
		} `json:"memstats"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		return 0, 0, err
	}
	return v.Memstats.Mallocs, v.Memstats.NumGC, nil
}
