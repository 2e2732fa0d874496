package main

import (
	"bufio"
	"cmp"
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"time"
)

// span is one traced interval at a layer boundary. Times are nanoseconds
// since the tracer's epoch.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"` // 0: a root span
	Name   string `json:"name"`
	Query  int64  `json:"query,omitempty"` // the served query's ID; 0 outside serving
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Derived marks a span whose length the program reported (a trial's
	// seconds, a response's micros) rather than one the benchmark stamped;
	// it is placed inside its parent so that self times add up.
	Derived bool `json:"derived,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, which is how the untraced end-to-end run stays free of tracing
// cost. It is used from one goroutine only: serving phases stamp their
// queries into plain records and the spans are added after the phase.
type tracer struct {
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) ns(at time.Time) int64 { return at.Sub(t.epoch).Nanoseconds() }

// add records a finished span and returns its ID (0 when tracing is off).
func (t *tracer) add(name string, parent int, query int64, start, end int64, derived bool) int {
	if t == nil {
		return 0
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Query: query, Start: start, End: end, Derived: derived})
	return id
}

// begin opens a span stamped now and returns its ID (0 when tracing is off).
func (t *tracer) begin(name string, parent int, query int64) int {
	if t == nil {
		return 0
	}
	now := t.ns(time.Now())
	return t.add(name, parent, query, now, now, false)
}

// end stamps the end of a span opened by begin.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id-1].End = t.ns(time.Now())
}

// nest records a derived child of the given length, centred in its parent.
func (t *tracer) nest(name string, parent int, query int64, length int64) int {
	if t == nil {
		return 0
	}
	p := t.spans[parent-1]
	start := p.Start + (p.dur()-length)/2
	return t.add(name, parent, query, start, start+length, true)
}

// msByName collects the span durations in milliseconds by span name.
func (t *tracer) msByName() map[string][]float64 {
	by := map[string][]float64{}
	for _, s := range t.spans {
		by[s.Name] = append(by[s.Name], float64(s.dur())/1e6)
	}
	return by
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that the union of its children covers.
func selfTimes(spans []span) map[int]int64 {
	type iv struct{ lo, hi int64 }
	children := make(map[int][]iv)
	byID := make(map[int]span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	for _, s := range spans {
		if p, ok := byID[s.Parent]; ok {
			lo, hi := max(s.Start, p.Start), min(s.End, p.End)
			if lo < hi {
				children[s.Parent] = append(children[s.Parent], iv{lo, hi})
			}
		}
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		ivs := children[s.ID]
		slices.SortFunc(ivs, func(a, b iv) int { return cmp.Compare(a.lo, b.lo) })
		var covered, reach int64
		reach = s.Start
		for _, c := range ivs {
			lo := max(c.lo, reach)
			if c.hi > lo {
				covered += c.hi - lo
				reach = c.hi
			}
		}
		self[s.ID] = s.dur() - covered
	}
	return self
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("writing %s: %w", path, err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return f.Close()
}
