package main

import (
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one call the benchmark made into a layer of the system. Spans
// are recorded in the benchmark's own code, around exported calls; the
// layer is the name's first dot-separated word.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Req    string `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Self   int64  `json:"self_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced operations run the same code with no spans.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span under parent (0 for a root) and returns its id.
func (t *tracer) begin(parent int, req, name string) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Req: req, Name: name, Start: now, End: now})
	return len(t.spans)
}

// end closes the span begin returned.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// add records a span whose interval was measured elsewhere.
func (t *tracer) add(parent int, req, name string, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Req: req, Name: name,
		Start: start.Sub(t.epoch).Nanoseconds(), End: end.Sub(t.epoch).Nanoseconds()})
	return len(t.spans)
}

// finish computes every span's self time — its duration minus the part of
// it that its children cover — and returns the spans.
func (t *tracer) finish() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int][]span)
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	for i := range t.spans {
		s := &t.spans[i]
		s.Self = s.End - s.Start - covered(s.Start, s.End, children[s.ID])
	}
	return t.spans
}

// covered is the length of [start, end) covered by the union of the
// children's intervals.
func covered(start, end int64, kids []span) int64 {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total int64
	cur := start
	for _, k := range kids {
		lo, hi := max(k.Start, cur), min(k.End, end)
		if hi > lo {
			total += hi - lo
			cur = hi
		}
	}
	return total
}

func layerOf(name string) string {
	layer, _, _ := strings.Cut(name, ".")
	return layer
}

// spanTable summarizes spans per name: count, duration p50/p90/p99 and
// mean self time, in microseconds.
func spanTable(spans []span) map[string]float64 {
	durs := make(map[string][]float64)
	selfs := make(map[string]float64)
	for _, s := range spans {
		durs[s.Name] = append(durs[s.Name], float64(s.End-s.Start)/1e3)
		selfs[s.Name] += float64(s.Self) / 1e3
	}
	out := make(map[string]float64)
	for name, d := range durs {
		out["span."+name+".count"] = float64(len(d))
		out["span."+name+".p50_us"] = quantile(d, 0.5)
		out["span."+name+".p90_us"] = quantile(d, 0.9)
		out["span."+name+".p99_us"] = quantile(d, 0.99)
		out["span."+name+".self_mean_us"] = selfs[name] / float64(len(d))
	}
	return out
}

// layerShares returns each layer's self time as a percentage of the
// total duration of the root spans.
func layerShares(spans []span) map[string]float64 {
	var rootTotal float64
	self := make(map[string]float64)
	for _, s := range spans {
		if s.Parent == 0 {
			rootTotal += float64(s.End - s.Start)
		}
		self[layerOf(s.Name)] += float64(s.Self)
	}
	out := make(map[string]float64)
	if rootTotal == 0 {
		return out
	}
	for layer, v := range self {
		out[layer] = 100 * v / rootTotal
	}
	return out
}
