package main

import (
	"encoding/json"
	"io"
	"math"
	"sort"
	"time"
)

// tracer keeps spans in memory: name, start, end and the span that was
// open when it began. The benchmark calls every layer from one
// goroutine, so a stack of open spans gives each span its parent. A nil
// *tracer records nothing, which is how untraced runs pay no tracing
// cost.
type tracer struct {
	epoch time.Time
	spans []span
	open  []int
	// samples holds per-call measurements by metric name, in the
	// metric's own unit.
	samples map[string][]float64
}

type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"` // -1 for a root
	Name   string  `json:"name"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), samples: map[string][]float64{}}
}

// begin opens a span and returns its id; end must close it before any
// enclosing span is closed.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Start: time.Since(t.epoch).Seconds()})
	t.open = append(t.open, id)
	return id
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id].End = time.Since(t.epoch).Seconds()
	t.open = t.open[:len(t.open)-1]
}

// call runs fn inside a span and returns its wall time.
func (t *tracer) call(name string, fn func()) time.Duration {
	id := t.begin(name)
	start := time.Now()
	fn()
	d := time.Since(start)
	t.end(id)
	return d
}

// selfTimes returns, per span name, the summed duration of its spans
// minus the part covered by their direct children, and the span count.
func selfTimes(spans []span) map[string][2]float64 {
	child := make([]float64, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := map[string][2]float64{}
	for i, s := range spans {
		v := out[s.Name]
		v[0] += s.End - s.Start - child[i]
		v[1]++
		out[s.Name] = v
	}
	return out
}

// writeSpans writes the spans as JSON lines followed by one self-time
// line per span name.
func writeSpans(w io.Writer, spans []span) error {
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	self := selfTimes(spans)
	for _, name := range sortedNames(self) {
		v := self[name]
		if err := enc.Encode(map[string]any{"self_time": name, "self_s": v[0], "spans": v[1]}); err != nil {
			return err
		}
	}
	return nil
}

func sortedNames[V any](m map[string]V) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// median returns the middle value (mean of the two middle values for an
// even count); NaN for no values.
func median(v []float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail returns the highest of p50/p90/p95/p99/p99.9 that has at least
// ten samples beyond it, and that percentile's value. With fewer than
// twenty samples no percentile qualifies and tail reports the maximum
// with label "max".
func tail(v []float64) (label string, value float64) {
	if len(v) == 0 {
		return "none", math.NaN()
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := float64(len(s))
	levels := []struct {
		label string
		q     float64
	}{{"p99.9", 0.999}, {"p99", 0.99}, {"p95", 0.95}, {"p90", 0.90}, {"p50", 0.50}}
	for _, l := range levels {
		idx := int(math.Ceil(l.q*n)) - 1
		if n-float64(idx+1) >= 10 {
			return l.label, s[idx]
		}
	}
	return "max", s[len(s)-1]
}

// timeIt calls fn n times and returns the per-call durations in the
// given unit.
func timeIt(n int, unit time.Duration, fn func()) []float64 {
	out := make([]float64, n)
	for i := range out {
		start := time.Now()
		fn()
		out[i] = float64(time.Since(start)) / float64(unit)
	}
	return out
}
