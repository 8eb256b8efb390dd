package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"
)

// spanLog records host-time spans around the benchmark's calls into the
// simulator's layers: each span has a name, a start, an end and the span
// that was open when it began. Spans stay in memory until the run ends.
// A nil *spanLog records nothing.
type spanLog struct {
	t0    time.Time
	spans []hostSpan
	open  []int
}

type hostSpan struct {
	Name       string
	Parent     int // index into spans, -1 at the top
	Start, End time.Duration
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

// begin opens a span and returns the function that closes it.
func (l *spanLog) begin(name string) func() {
	if l == nil {
		return func() {}
	}
	parent := -1
	if len(l.open) > 0 {
		parent = l.open[len(l.open)-1]
	}
	i := len(l.spans)
	l.spans = append(l.spans, hostSpan{Name: name, Parent: parent, Start: time.Since(l.t0)})
	l.open = append(l.open, i)
	return func() {
		l.spans[i].End = time.Since(l.t0)
		l.open = l.open[:len(l.open)-1]
	}
}

// call runs fn inside a span.
func (l *spanLog) call(name string, fn func()) {
	defer l.begin(name)()
	fn()
}

// totals sums the spans' durations by name, with each name's count and
// self time (duration minus the time its child spans cover).
func (l *spanLog) totals() string {
	type agg struct {
		n          int
		total, own time.Duration
	}
	by := map[string]*agg{}
	var names []string
	for _, s := range l.spans {
		a := by[s.Name]
		if a == nil {
			a = &agg{}
			by[s.Name] = a
			names = append(names, s.Name)
		}
		a.n++
		a.total += s.End - s.Start
		a.own += s.End - s.Start
	}
	for _, s := range l.spans {
		if s.Parent >= 0 {
			by[l.spans[s.Parent].Name].own -= s.End - s.Start
		}
	}
	sort.Strings(names)
	parts := make([]string, len(names))
	for i, name := range names {
		a := by[name]
		parts[i] = fmt.Sprintf("%s x%d %.3fms (self %.3fms)", name, a.n,
			float64(a.total)/1e6, float64(a.own)/1e6)
	}
	return strings.Join(parts, "; ")
}

// write saves the spans as a Chrome trace (one lane, nested by time).
func (l *spanLog) write(path string) error {
	type event struct {
		Name string  `json:"name"`
		Ph   string  `json:"ph"`
		Ts   float64 `json:"ts"`
		Dur  float64 `json:"dur"`
		Pid  int     `json:"pid"`
		Tid  int     `json:"tid"`
	}
	evs := make([]event, len(l.spans))
	for i, s := range l.spans {
		evs[i] = event{s.Name, "X", float64(s.Start) / 1e3, float64(s.End-s.Start) / 1e3, 1, 1}
	}
	b, err := json.Marshal(map[string]any{"displayTimeUnit": "ms", "traceEvents": evs})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
