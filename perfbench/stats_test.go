package main

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"
	"time"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // unsorted on purpose
	}
	return xs
}

func TestQuantile(t *testing.T) {
	xs := seq(5) // 1..5
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 3}, {1, 5}, {0.25, 2}, {0.1, 1.4}} {
		if got := quantile(xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(%g) = %g, want %g", c.q, got, c.want)
		}
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of no samples is not NaN")
	}
}

func TestInterquartileMean(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{seq(1), 1},
		{seq(2), 1.5},
		{seq(8), 4.5},                   // mean of 3..6
		{[]float64{1, 4, 2, 100, 3}, 3}, // drops 1 and 100
		// Two modes, 3 fast and 5 slow: the median sits on the slow
		// mode, the interquartile mean between the two.
		{[]float64{2, 2, 2, 4, 4, 4, 4, 4}, 3.5},
	} {
		if got := interquartileMean(c.xs); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("interquartileMean(%v) = %g, want %g", c.xs, got, c.want)
		}
	}
	if !math.IsNaN(interquartileMean(nil)) {
		t.Error("interquartile mean of no samples is not NaN")
	}
}

func TestGuardedPercentileRefusesThinTails(t *testing.T) {
	for _, c := range []struct {
		n      int
		p      float64
		beyond int
		ok     bool
	}{
		{999, 99, 9, false},
		{1000, 99, 10, true},
		{1500, 99, 15, true},
		{99, 90, 9, false},
		{100, 90, 10, true},
		{19, 50, 9, false},
		{20, 50, 10, true},
	} {
		pc, err := guardedPercentile(seq(c.n), c.p)
		if (err == nil) != c.ok {
			t.Errorf("p%g of %d: err = %v, want ok=%v", c.p, c.n, err, c.ok)
			continue
		}
		if got := beyond(c.n, c.p); got != c.beyond {
			t.Errorf("beyond(%d, p%g) = %d, want %d", c.n, c.p, got, c.beyond)
		}
		if c.ok && (pc.N != c.n || pc.Beyond != c.beyond) {
			t.Errorf("p%g of %d reports n=%d beyond=%d", c.p, c.n, pc.N, pc.Beyond)
		}
	}
}

func TestClassBoundaries(t *testing.T) {
	// Ordered by median latency the classes run 2-way (70), fresh (6),
	// 3-way (24), so the boundaries sit at 70 and 76.
	classes := []classShare{
		{"hot-2way", 70, 10},
		{"hot-3way", 24, 70},
		{"fresh-2way", 6, 20},
	}
	b := classBoundaries(classes)
	if len(b) != 2 || math.Abs(b[0]-70) > 1e-9 || math.Abs(b[1]-76) > 1e-9 {
		t.Fatalf("boundaries = %v, want [70 76]", b)
	}
	for _, c := range []struct {
		p  float64
		ok bool
	}{{50, true}, {99, true}, {66, false}, {74, false}, {80, false}, {81, true}, {65, true}} {
		if err := checkBoundary(c.p, b); (err == nil) != c.ok {
			t.Errorf("checkBoundary(p%g) = %v, want ok=%v", c.p, err, c.ok)
		}
	}
	// A 50/50 mix puts p50 on the boundary.
	if err := checkBoundary(50, classBoundaries([]classShare{{"a", 50, 1}, {"b", 50, 2}})); err == nil {
		t.Error("p50 of a 50/50 mix passed the boundary check")
	}
}

func TestRequestMix(t *testing.T) {
	const n = 20000
	var counts [numClasses]int
	seen := make(map[string]bool)
	for i := 0; i < n; i++ {
		class, spec := requestFor(7, i)
		counts[class]++
		if class == classFresh {
			if seen[spec] {
				t.Fatalf("fresh spec %q repeats", spec)
			}
			seen[spec] = true
		}
		if c2, s2 := requestFor(7, i); c2 != class || s2 != spec {
			t.Fatalf("request %d differs between calls", i)
		}
	}
	for c, want := range [numClasses]float64{70, 24, 6} {
		if got := 100 * float64(counts[c]) / n; got != want {
			t.Errorf("class %s share %.1f%%, want %g%%", classNames[c], got, want)
		}
	}
}

func TestSelfTimesSubtractChildren(t *testing.T) {
	tr := newTracer()
	at := func(ms int) time.Time { return tr.epoch.Add(time.Duration(ms) * time.Millisecond) }
	root := tr.add("query", 1, 0, at(0), at(100))
	exec := tr.add("core.exec", 1, root, at(10), at(100))
	tr.add("core.plan", 1, root, at(0), at(10))
	// Overlapping children count once; a child past its parent is clipped.
	tr.add("mr.map", 1, exec, at(20), at(50))
	tr.add("mr.reduce", 1, exec, at(40), at(70))
	tr.add("core.merge", 1, exec, at(90), at(120))
	self := tr.selfTimes()
	want := map[string]time.Duration{
		"query":      0,
		"core.plan":  10 * time.Millisecond,
		"core.exec":  90*time.Millisecond - 50*time.Millisecond - 10*time.Millisecond,
		"mr.map":     30 * time.Millisecond,
		"mr.reduce":  30 * time.Millisecond,
		"core.merge": 30 * time.Millisecond,
	}
	for name, w := range want {
		if self[name] != w {
			t.Errorf("self(%s) = %v, want %v", name, self[name], w)
		}
	}
	var nilTracer *tracer
	if id := nilTracer.add("x", 1, 0, at(0), at(1)); id != 0 || nilTracer.selfTimes() != nil {
		t.Error("nil tracer recorded a span")
	}
}

func TestChromeTraceIsSortedAndComplete(t *testing.T) {
	tr := newTracer()
	at := func(ms int) time.Time { return tr.epoch.Add(time.Duration(ms) * time.Millisecond) }
	exec := tr.add("core.exec", 2, 0, at(5), at(9))
	tr.add("mr.map", 2, exec, at(5), at(8))
	tr.add("query", 1, 0, at(0), at(10))
	var buf bytes.Buffer
	if err := tr.writeChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Ts   int64          `json:"ts"`
			Dur  int64          `json:"dur"`
			Args map[string]int `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.TraceEvents) != 3 {
		t.Fatalf("%d events, want 3", len(doc.TraceEvents))
	}
	last := int64(-1)
	for _, e := range doc.TraceEvents {
		if e.Ph != "X" || e.Ts < last || e.Dur < 0 {
			t.Errorf("event %+v out of order or malformed", e)
		}
		last = e.Ts
	}
	if e := doc.TraceEvents[1]; e.Name != "core.exec" || e.Dur != 4000 {
		t.Errorf("second span = %+v, want core.exec lasting 4000us", e)
	}
	if e := doc.TraceEvents[2]; e.Args["parent"] != doc.TraceEvents[1].Args["id"] || e.Args["req"] != 2 {
		t.Errorf("child span args = %v, want parent %d and req 2", e.Args, doc.TraceEvents[1].Args["id"])
	}
}
