package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"

	safecube "repro"
)

// TestHTTPAnswersCarryRoutedGeneration checks that an HTTP answer is
// labeled with the generation it was routed on while churn publishes
// new ones: a /route answer's generation is its flight record's, and
// every route of a /route, /batch or /routeall answer is the route the
// fault set of the generation it names gives. The churn fails and
// recovers one node, and every request routes from that node, so an
// answer routed on one generation and labeled with the next is caught.
func TestHTTPAnswersCarryRoutedGeneration(t *testing.T) {
	const victim = 5
	base := []string{"00101000", "01001101", "10000010"}
	cubeWith := func(extra ...string) *safecube.Cube {
		c := safecube.MustNew(8)
		if err := c.FailNamed(append(base, extra...)...); err != nil {
			t.Fatal(err)
		}
		return c
	}
	c := cubeWith()
	// The reference routes from the victim, by whether it is down.
	ref := map[bool]*safecube.Cube{false: cubeWith(), true: cubeWith(c.Format(victim))}

	fl := safecube.NewFlightRecorder(safecube.FlightOptions{Records: 1 << 15})
	reg := safecube.NewRegistry()
	srv, err := c.Serve(safecube.ServeOptions{Registry: reg, Flight: fl})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	h := newHandler(srv, c, reg, handlerOpts{queueCap: 64})

	var mu sync.Mutex
	downAt := map[uint64]bool{srv.Generation(): false}
	stop := make(chan struct{})
	churned := make(chan error, 1)
	go func() {
		for i := 0; ; i++ {
			select {
			case <-stop:
				churned <- nil
				return
			default:
			}
			down := i%2 == 0
			var err error
			if down {
				err = srv.FailNode(victim)
			} else {
				err = srv.RecoverNode(victim)
			}
			if err != nil {
				churned <- err
				return
			}
			srv.Flush()
			mu.Lock()
			downAt[srv.Generation()] = down
			mu.Unlock()
		}
	}()

	type routed struct {
		Generation uint64     `json:"generation"`
		RequestID  uint64     `json:"request_id"`
		Route      *refRoute  `json:"route"`
		Routes     []refRoute `json:"routes"`
		url        string
	}
	get := func(url string) (routed, error) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, url, nil))
		v := routed{url: url}
		if len(url) > 40 {
			v.url = url[:40] + "..."
		}
		if rec.Code != http.StatusOK {
			return v, fmt.Errorf("%s: status %d: %s", url, rec.Code, rec.Body)
		}
		return v, json.Unmarshal(rec.Body.Bytes(), &v)
	}
	src := c.Format(victim)
	var pairs []string
	for d := 255; d > 255-64; d-- {
		pairs = append(pairs, src+"-"+c.Format(safecube.NodeID(d)))
	}
	batchURL := "/batch?pairs=" + strings.Join(pairs, ",")

	const clients, rounds = 2, 1500
	answers := make([][]routed, clients)
	var wg sync.WaitGroup
	for k := 0; k < clients; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				urls := []string{"/route?src=" + src + "&dst=" + c.Format(safecube.NodeID(128+i%128))}
				if i%10 == 0 {
					urls = append(urls, batchURL)
				}
				if i%100 == 0 {
					urls = append(urls, "/routeall?src="+src)
				}
				for _, url := range urls {
					v, err := get(url)
					if err != nil {
						t.Error(err)
						return
					}
					answers[k] = append(answers[k], v)
				}
			}
		}(k)
	}
	wg.Wait()
	close(stop)
	if err := <-churned; err != nil {
		t.Fatal(err)
	}
	if len(downAt) < 20 {
		t.Fatalf("only %d generations published during the test", len(downAt))
	}

	recGen := map[uint64]uint64{}
	for _, rec := range fl.Records(0) {
		recGen[rec.ID] = rec.Gen
	}
	// want is the route from the victim to dst at generation gen.
	want := func(gen uint64, dst string) refRoute {
		down, ok := downAt[gen]
		if !ok {
			t.Fatalf("answer at generation %d, which was never published", gen)
		}
		r := ref[down]
		return refRouteOf(r.Unicast(victim, r.MustParse(dst)), r)
	}
	checked := 0
	for k := range answers {
		for _, v := range answers[k] {
			if v.Route != nil {
				g, ok := recGen[v.RequestID]
				if !ok {
					t.Fatalf("%s: flight record %d missing", v.url, v.RequestID)
				}
				if v.Generation != g {
					t.Fatalf("%s: answer generation %d, flight record generation %d", v.url, v.Generation, g)
				}
				v.Routes = []refRoute{*v.Route}
			}
			for _, got := range v.Routes {
				if w := want(v.Generation, got.Dst); !reflect.DeepEqual(got, w) {
					t.Fatalf("%s: route to %s at generation %d is %+v, want %+v", v.url, got.Dst, v.Generation, got, w)
				}
				checked++
			}
		}
	}
	t.Logf("%d routes checked over %d generations", checked, len(downAt))
}
