package main

import (
	"bytes"
	"io"
	"math"
	"os"
	"regexp"
	"testing"
	"time"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestSmoke runs every workload at -scale tiny, the untraced and the
// traced pass, and checks that no operation fails and every end-to-end
// metric has a value. A run emits the metrics declared in metrics.go by
// construction; BENCHMARK.json must be what -manifest prints from them.
func TestSmoke(t *testing.T) {
	start := time.Now()
	committed, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(committed, manifestJSON()) {
		t.Error("BENCHMARK.json differs from `go run -C benchmark . -manifest`")
	}
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if !nameRE.MatchString(d.name) || !unitRE.MatchString(d.unit) {
			t.Errorf("metric %q [%s]: name or unit outside the allowed characters", d.name, d.unit)
		}
	}
	for _, d := range endToEnd {
		if d.bound <= 0 || d.bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.name, d.bound)
		}
	}

	c := &ctx{workers: 2, tiny: true, micro: time.Millisecond}
	for _, w := range workloads {
		if !nameRE.MatchString(w.name) || len(w.why) > 200 {
			t.Errorf("workload %q: bad name or a why of %d characters", w.name, len(w.why))
		}
		for _, traced := range []bool{false, true} {
			res := runWorkload(c, w, 1, 0.1, traced, io.Discard)
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", w.name, traced, res.Correct, res.Attempted, res.Failed)
			}
			for name, mv := range res.Metrics {
				if !traced && mv.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s is %v", w.name, name, mv.Value)
				}
			}
		}
	}
	if d := time.Since(start); d > 15*time.Second {
		t.Errorf("smoke run took %v, more than 15 s", d)
	}
}

// TestSelfTime pins the span arithmetic: self time is duration minus the
// part child spans cover.
func TestSelfTime(t *testing.T) {
	r := &recorder{spans: []span{
		{kind: spEngine, parent: -1, start: 0, end: 100},
		{kind: spHandler, parent: 0, start: 10, end: 50},
		{kind: spSend, parent: 1, start: 20, end: 30},
		{kind: spSend, parent: 0, start: 60, end: 70},
	}}
	got := r.totals(0)
	for _, want := range []struct {
		kind       spanKind
		count      int
		total, own time.Duration
	}{{spEngine, 1, 100, 50}, {spHandler, 1, 40, 30}, {spSend, 2, 20, 20}} {
		if g := got[want.kind]; g.count != want.count || g.total != want.total || g.own != want.own {
			t.Errorf("span kind %d: got %+v, want %+v", want.kind, g, want)
		}
	}
}

// TestQuartileSpread pins the spread to what Python's
// statistics.quantiles(xs, n=4) gives: (q3 - q1) / q2.
func TestQuartileSpread(t *testing.T) {
	xs := []float64{3.1, 2.2, 5.5, 4.4, 1.0, 9.9, 7.2, 6.1, 8.8, 2.9}
	if got, want := quartileSpread(xs), 0.984848484848485; math.Abs(got-want) > 1e-12 {
		t.Errorf("quartileSpread = %v, want %v", got, want)
	}
}
