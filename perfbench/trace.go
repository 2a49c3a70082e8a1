package main

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call from the benchmark into a module's public
// function. Parent is the index of the enclosing span (-1 for a root); Op
// numbers the workload operation the span belongs to, so every span of
// one operation shares it.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
}

// tracer keeps spans in memory for the traced run. A nil *tracer records
// nothing, so untraced runs pay one nil check per call site.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<14)} }

// begin opens a span and returns its id (-1 when not tracing).
func (t *tracer) begin(name string, parent, op int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: now, End: -1, Parent: parent, Op: op})
	return len(t.spans) - 1
}

// end closes the span id and returns its duration.
func (t *tracer) end(id int) time.Duration {
	if t == nil || id < 0 {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].End = now
	return time.Duration(now - t.spans[id].Start)
}

// layerOf is the module a span name belongs to: the text before the
// first dot ("verify.slot" → "verify").
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i >= 0 {
		return name[:i]
	}
	return name
}

// selfTimes sums, per layer, each span's duration minus the part of its
// interval covered by its children, in seconds.
func (t *tracer) selfTimes() map[string]float64 {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int][]int{}
	for i, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	out := map[string]float64{}
	for i, s := range t.spans {
		if s.End < 0 {
			continue
		}
		var iv [][2]int64
		for _, c := range children[i] {
			if cs := t.spans[c]; cs.End >= 0 {
				iv = append(iv, [2]int64{max(cs.Start, s.Start), min(cs.End, s.End)})
			}
		}
		out[layerOf(s.Name)] += float64(s.End-s.Start-covered(iv)) / 1e9
	}
	return out
}

// covered is the total length of the union of the intervals.
func covered(iv [][2]int64) int64 {
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total, end int64 = 0, -1 << 62
	for _, x := range iv {
		if x[1] <= end {
			continue
		}
		if x[0] > end {
			total += x[1] - x[0]
		} else {
			total += x[1] - end
		}
		end = x[1]
	}
	return total
}

// write stores the spans as JSON at path.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
