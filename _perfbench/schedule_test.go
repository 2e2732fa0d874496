package main

import (
	"math"
	"reflect"
	"testing"
	"time"

	"gapbench/internal/core"
	"gapbench/internal/generate"
)

func testInputs(t *testing.T) []*core.Input {
	t.Helper()
	var inputs []*core.Input
	for _, name := range []string{generate.NameKron, generate.NameRoad} {
		spec, err := core.SpecForName(name)
		if err != nil {
			t.Fatal(err)
		}
		spec.Scale = 6
		in, err := core.LoadInput(spec)
		if err != nil {
			t.Fatal(err)
		}
		inputs = append(inputs, in)
	}
	return inputs
}

type scheduled struct {
	due  time.Duration
	req  string
	kind int
}

func schedule(seed uint64, w serveWorkload, inputs []*core.Input) []scheduled {
	gen := newRequestGen(seed, w, inputs)
	var out []scheduled
	for _, q := range poissonSchedule(gen, 1<<32, 500, 2*time.Second) {
		out = append(out, scheduled{q.due, requestString(q.req), q.graph})
	}
	return out
}

func TestPoissonScheduleReproducible(t *testing.T) {
	inputs := testInputs(t)
	a := schedule(42, serveOpen, inputs)
	b := schedule(42, serveOpen, inputs)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave different schedules")
	}
	if c := schedule(43, serveOpen, inputs); reflect.DeepEqual(a, c) {
		t.Fatal("different seeds gave the same schedule")
	}
	// 500/s for 2 s: about 1000 arrivals, in order, inside the window.
	if n := float64(len(a)); math.Abs(n-1000) > 150 {
		t.Errorf("%v arrivals, want about 1000", n)
	}
	for i := 1; i < len(a); i++ {
		if a[i].due < a[i-1].due || a[i].due >= 2*time.Second {
			t.Fatalf("arrival %d due %v out of order or outside the window", i, a[i].due)
		}
	}
}

func TestRequestMixFollowsWorkload(t *testing.T) {
	inputs := testInputs(t)
	gen := newRequestGen(1, serveMix, inputs)
	counts := map[string]int{}
	for i := int64(0); i < 10000; i++ {
		q := gen.next(i)
		counts[q.req.Kernel]++
		if q.req.Graph != inputs[q.graph].Spec.Name {
			t.Fatalf("request names graph %s, index %d", q.req.Graph, q.graph)
		}
	}
	for _, kw := range serveMix.mix {
		share := float64(counts[kw.kernel]) / 10000
		if want := kw.weight / 10; math.Abs(share-want) > 0.03 {
			t.Errorf("%s share %.3f, want %.1f", kw.kernel, share, want)
		}
	}
}
