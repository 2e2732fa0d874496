package main

import (
	"math/rand"
	"testing"
	"time"

	"gapbench/internal/serve"
)

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "b", Start: 20, End: 50},  // overlaps a: union 10..50
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120}, // clipped to the parent: 90..100
		{ID: 5, Parent: 3, Name: "b1", Start: 25, End: 35},
		{ID: 6, Name: "other", Start: 0, End: 7},
	}
	want := map[int]int64{1: 100 - 40 - 10, 2: 20, 3: 30 - 10, 4: 30, 5: 10, 6: 7}
	got := selfTimes(spans)
	for id, w := range want {
		if got[id] != w {
			t.Errorf("span %d: self %d, want %d", id, got[id], w)
		}
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *tracer
	if id := tr.begin("x", 0, 0); id != 0 {
		t.Errorf("nil tracer begin = %d", id)
	}
	tr.end(0)
	if id := tr.nest("x", 0, 0, 5); id != 0 {
		t.Errorf("nil tracer nest = %d", id)
	}
}

// TestQuerySplitSumsToRoundTrip: for every served query, outside + in-server
// + kernel self time equals the client round trip.
func TestQuerySplitSumsToRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ph := &phase{start: time.Now()}
	at := time.Duration(0)
	for i := 0; i < 500; i++ {
		rtt := time.Duration(50+rng.Intn(5000)) * time.Microsecond
		rtt += time.Duration(rng.Intn(1000)) // sub-microsecond part
		micros := rng.Int63n(rtt.Microseconds() + 1)
		kernel := rng.Int63n(micros + 1)
		ph.queries = append(ph.queries, &query{
			queryID:  int64(i + 1),
			sent:     at,
			recv:     at + rtt,
			answered: true,
			resp:     serve.Response{Code: serve.CodeOK, Micros: micros, KernelMicros: kernel},
		})
		at += time.Duration(rng.Intn(3000)) * time.Microsecond // overlapping queries
	}
	tr := newTracer()
	tr.epoch = ph.start.Add(-time.Second)
	root := tr.add("phase", 0, 0, 0, int64(time.Hour), false)
	split := splitQueries(tr, root, ph)
	for _, q := range ph.queries {
		p := split[q.queryID]
		rtt := (q.recv - q.sent).Nanoseconds()
		if d := p[0] + p[1] + p[2] - rtt; d > 1000 || d < -1000 {
			t.Fatalf("query %d: %d + %d + %d != %d", q.queryID, p[0], p[1], p[2], rtt)
		}
		if p[2] != q.resp.KernelMicros*1000 || p[1] != (q.resp.Micros-q.resp.KernelMicros)*1000 {
			t.Fatalf("query %d: split %v from micros %d, kernel %d", q.queryID, p, q.resp.Micros, q.resp.KernelMicros)
		}
	}
}
