package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// epoch is the zero of every span timestamp.
var epoch = time.Now()

func sinceEpoch(t time.Time) int64 { return t.Sub(epoch).Nanoseconds() }

// span is one timed call recorded by the benchmark around a layer's
// public function. Spans of one input share its index: the input's
// position in the client's pair ring, or the event's position in the
// fault stream. Parent is the enclosing span's id (-1 for a root).
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"`
	Name     string `json:"name"`
	Workload string `json:"workload"`
	Index    int64  `json:"index"`
	StartNS  int64  `json:"start_ns"`
	EndNS    int64  `json:"end_ns"`
}

// maxSpans bounds the spans kept in memory and written out; later ones
// are counted as dropped.
const maxSpans = 100000

// tracer keeps spans in memory until the run ends. It is used from one
// goroutine at a time.
type tracer struct {
	workload string
	spans    []span
	dropped  int
	metrics  map[string]map[string]metricValue // per workload, written with the spans
}

func newTracer() *tracer {
	return &tracer{metrics: map[string]map[string]metricValue{}}
}

// add records a finished span, times in ns since epoch, and returns its
// id (-1 once full).
func (tr *tracer) add(parent int, name string, index, start, end int64) int {
	if len(tr.spans) >= maxSpans {
		tr.dropped++
		return -1
	}
	id := len(tr.spans)
	tr.spans = append(tr.spans, span{
		ID: id, Parent: parent, Name: name, Workload: tr.workload,
		Index: index, StartNS: start, EndNS: end,
	})
	return id
}

// addTimes is add for a span timed with time.Now.
func (tr *tracer) addTimes(parent int, name string, index int64, start, end time.Time) int {
	return tr.add(parent, name, index, sinceEpoch(start), sinceEpoch(end))
}

// open starts a parent span whose end is set by close.
func (tr *tracer) open(parent int, name string) int {
	now := sinceEpoch(time.Now())
	return tr.add(parent, name, -1, now, now)
}

func (tr *tracer) close(id int) {
	if id >= 0 {
		tr.spans[id].EndNS = sinceEpoch(time.Now())
	}
}

// write saves every span and each workload's per-layer metrics as one
// JSON document.
func (tr *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(struct {
		Spans   []span                            `json:"spans"`
		Dropped int                               `json:"dropped"`
		Metrics map[string]map[string]metricValue `json:"metrics"`
	}{tr.spans, tr.dropped, tr.metrics})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
