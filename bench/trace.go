package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark
// around the call (the program itself is not instrumented). Times are
// seconds since the trace began. Spans of one operation share Op;
// Parent is the ID of the span whose call caused this one, 0 for none.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent,omitempty"`
	Op     int     `json:"op"`
	Name   string  `json:"name"`
	Start  float64 `json:"start"`
	End    float64 `json:"end"`
	// Derived marks a span that was not timed where it ran: a phase
	// duration the API returned (laid end to end inside its parent), or
	// an estimate obtained by repeating the same work outside the call.
	Derived string `json:"derived,omitempty"`
	// Counts are the work counts at this boundary.
	Counts map[string]float64 `json:"counts,omitempty"`
}

// tracer keeps spans in memory until the pass ends.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() float64 { return time.Since(t.t0).Seconds() }

// begin opens a span and returns its ID.
func (t *tracer) begin(name string, op, parent int) int {
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Op: op, Name: name, Start: t.now()})
	return len(t.spans)
}

// end closes the span and attaches counts (which may be nil).
func (t *tracer) end(id int, counts map[string]float64) {
	t.spans[id-1].End = t.now()
	t.spans[id-1].Counts = counts
}

// child is a span that was not timed where it ran: how says whether
// its duration is a phase time the API "reported" or an estimate
// obtained by work "repeated" outside the call.
type child struct {
	name, how string
	dur       time.Duration
}

// derived adds such children to a closed span, laid end to end from
// the parent's start in the order given.
func (t *tracer) derived(parent int, children ...child) {
	p := t.spans[parent-1]
	at := p.Start
	for _, c := range children {
		end := at + c.dur.Seconds()
		t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Op: p.Op, Name: c.name, Start: at, End: end, Derived: c.how})
		at = end
	}
}

// layerTime is the total and self time of every span with one name.
type layerTime struct {
	name        string
	calls       int
	total, self float64
	hasChildren bool
}

// selfTimes aggregates spans by name. A span's self time is its
// duration minus the part its children cover.
func (t *tracer) selfTimes() []layerTime {
	children := make([]float64, len(t.spans)+1)
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] += s.End - s.Start
		}
	}
	byName := map[string]*layerTime{}
	for _, s := range t.spans {
		lt := byName[s.Name]
		if lt == nil {
			lt = &layerTime{name: s.Name}
			byName[s.Name] = lt
		}
		dur := s.End - s.Start
		covered := min(children[s.ID], dur)
		lt.calls++
		lt.total += dur
		lt.self += dur - covered
		lt.hasChildren = lt.hasChildren || children[s.ID] > 0
	}
	out := make([]layerTime, 0, len(byName))
	for _, lt := range byName {
		out = append(out, *lt)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// write stores the trace as one JSON document.
func (t *tracer) write(path, workload string, seed int64) error {
	doc := struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Spans    []span `json:"spans"`
	}{workload, seed, t.spans}
	data, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
