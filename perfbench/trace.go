package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// span is one timed call into a layer. Spans of one top-level operation
// share a trace ID; Parent is 0 for a root.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Trace  int     `json:"trace"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_s"` // from the tracer's epoch
	End    float64 `json:"end_s"`
}

func (s span) dur() float64 { return s.End - s.Start }

// tracer keeps spans in memory until the run writes them out. It is used
// from one goroutine: begin and end nest like calls. A nil tracer records
// nothing, so the same code runs traced and untraced.
type tracer struct {
	epoch  time.Time
	spans  []span
	stack  []int // indexes into spans of the open spans
	traces int
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() float64 { return time.Since(t.epoch).Seconds() }

// begin opens a span under the innermost open span, or as a new trace's
// root when none is open, and returns its index.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	s := span{ID: len(t.spans) + 1, Name: name, Start: t.now()}
	if n := len(t.stack); n > 0 {
		p := t.spans[t.stack[n-1]]
		s.Parent, s.Trace = p.ID, p.Trace
	} else {
		t.traces++
		s.Trace = t.traces
	}
	t.spans = append(t.spans, s)
	t.stack = append(t.stack, len(t.spans)-1)
	return len(t.spans) - 1
}

// end closes the span begin returned, which must be the innermost one.
func (t *tracer) end(i int) {
	if t == nil {
		return
	}
	t.spans[i].End = t.now()
	t.stack = t.stack[:len(t.stack)-1]
}

// do runs fn inside a span.
func (t *tracer) do(name string, fn func() error) error {
	i := t.begin(name)
	err := fn()
	t.end(i)
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	return nil
}

// call runs fn, which cannot fail, inside a span.
func (t *tracer) call(name string, fn func()) {
	i := t.begin(name)
	fn()
	t.end(i)
}

// add records an already timed span under the innermost open span; the
// traced run uses it for work that ran on another goroutine.
func (t *tracer) add(name string, start, end time.Time) {
	if t == nil {
		return
	}
	s := span{ID: len(t.spans) + 1, Name: name,
		Start: start.Sub(t.epoch).Seconds(), End: end.Sub(t.epoch).Seconds()}
	if n := len(t.stack); n > 0 {
		p := t.spans[t.stack[n-1]]
		s.Parent, s.Trace = p.ID, p.Trace
	}
	t.spans = append(t.spans, s)
}

// total is the summed duration of every span called name, in seconds.
func (t *tracer) total(name string) float64 {
	sum := 0.0
	for _, s := range t.spans {
		if s.Name == name {
			sum += s.dur()
		}
	}
	return sum
}

// durations lists the duration of every span called name, in seconds.
func (t *tracer) durations(name string) []float64 {
	var ds []float64
	for _, s := range t.spans {
		if s.Name == name {
			ds = append(ds, s.dur())
		}
	}
	return ds
}

// selfTimes is each span's duration less the part of its interval that
// its children cover. Children may overlap (work on another goroutine),
// so covered time is the length of the union of their intervals.
func (t *tracer) selfTimes() []float64 {
	children := make([][]span, len(t.spans))
	for _, s := range t.spans {
		if s.Parent > 0 {
			children[s.Parent-1] = append(children[s.Parent-1], s)
		}
	}
	self := make([]float64, len(t.spans))
	for i, s := range t.spans {
		self[i] = s.dur() - covered(children[i])
	}
	return self
}

// covered is the length of the union of the spans' intervals.
func covered(spans []span) float64 {
	sort.Slice(spans, func(a, b int) bool { return spans[a].Start < spans[b].Start })
	total, lo, hi := 0.0, 0.0, 0.0
	for i, s := range spans {
		switch {
		case i == 0:
			lo, hi = s.Start, s.End
		case s.Start > hi:
			total += hi - lo
			lo, hi = s.Start, s.End
		case s.End > hi:
			hi = s.End
		}
	}
	if len(spans) > 0 {
		total += hi - lo
	}
	return total
}

// nameStat is one span name's total and self time.
type nameStat struct {
	name        string
	count       int
	total, self float64
}

// byName sums total and self time per span name, largest total first.
func (t *tracer) byName() []nameStat {
	self := t.selfTimes()
	idx := map[string]int{}
	var out []nameStat
	for i, s := range t.spans {
		j, ok := idx[s.Name]
		if !ok {
			j = len(out)
			idx[s.Name] = j
			out = append(out, nameStat{name: s.Name})
		}
		out[j].count++
		out[j].total += s.dur()
		out[j].self += self[i]
	}
	sort.SliceStable(out, func(a, b int) bool { return out[a].total > out[b].total })
	return out
}

// writeSpans writes every span as JSON to path.
func (t *tracer) writeSpans(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(t.spans, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// allocMB returns the bytes the process has allocated so far, in MB.
func allocMB() float64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.TotalAlloc) / 1e6
}

// heapMB collects garbage and returns the live heap in MB.
func heapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}

// tracedRun calls into every layer from this package with spans around
// each call, for every per-layer metric: the paper pipeline, the serve
// path on the recorded week, the fold under paced ingest, and the
// disruption suite's wire and federation layers. The spans are written
// to .bench_build/trace/ when the run ends.
func tracedRun(r *run) error {
	t := newTracer()
	if err := tracePaper(r, t); err != nil {
		return err
	}
	lr, err := traceServe(r, t)
	if err != nil {
		return err
	}
	if err := traceBusyFold(r, t, lr); err != nil {
		return err
	}
	if err := traceSuite(r, t, lr); err != nil {
		return err
	}

	r.detail("traced run seed=%d: %d spans in %d traces", r.seed, len(t.spans), t.traces)
	r.detail("  %-28s %5s %10s %10s", "span", "count", "total_s", "self_s")
	for _, ns := range t.byName() {
		r.detail("  %-28s %5d %10.4f %10.4f", ns.name, ns.count, ns.total, ns.self)
	}
	path := filepath.Join(".bench_build", "trace", fmt.Sprintf("spans-%s-s%d-p%d.json", r.workload, r.seed, os.Getpid()))
	if err := t.writeSpans(path); err != nil {
		return err
	}
	r.detail("  spans written to %s", path)
	return nil
}
