package main

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"time"
)

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{3}, 3},
		{[]float64{5, 1, 3}, 3},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(c.in); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.in, got, c.want)
		}
	}
	in := []float64{3, 1, 2}
	median(in)
	if in[0] != 3 || in[1] != 1 || in[2] != 2 {
		t.Errorf("median reordered its argument: %v", in)
	}
}

func TestPercentileNearestRank(t *testing.T) {
	ds := make([]time.Duration, 100)
	for i := range ds {
		ds[i] = time.Duration(i + 1)
	}
	for _, c := range []struct {
		p    float64
		want time.Duration
	}{{50, 50}, {95, 95}, {99, 99}, {100, 100}, {0.5, 1}} {
		if got := percentile(ds, c.p); got != c.want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	// Nearest rank rounds the rank up: the 50th percentile of 5 samples
	// is the 3rd, of 4 samples the 2nd.
	if got := percentile(ds[:5], 50); got != 3 {
		t.Errorf("percentile(1..5, 50) = %v, want 3", got)
	}
	if got := percentile(ds[:4], 50); got != 2 {
		t.Errorf("percentile(1..4, 50) = %v, want 2", got)
	}
	if got := percentile(ds[:1], 95); got != 1 {
		t.Errorf("percentile of one sample = %v, want it", got)
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile(nil) = %v, want 0", got)
	}
}

// Python: statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) ==
// [2.75, 5.5, 8.25]; quantiles([10.0, 12.5, 11.0, 30.0, 9.0], n=4) ==
// [9.5, 11.0, 21.25]; quantiles([1, 2], n=4) == [0.75, 1.5, 2.25].
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		in     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{10, 12.5, 11, 30, 9}, 9.5, 21.25},
		{[]float64{1, 2}, 0.75, 2.25},
	} {
		q1, q3 := quartiles(c.in)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.in, q1, q3, c.q1, c.q3)
		}
	}
}

func TestWorsening(t *testing.T) {
	if got := worsening(100, 110, "lower"); math.Abs(got-0.10) > 1e-12 {
		t.Errorf("a latency going 100 to 110 worsened by %v, want 0.10", got)
	}
	if got := worsening(100, 90, "higher"); math.Abs(got-0.10) > 1e-12 {
		t.Errorf("a rate going 100 to 90 worsened by %v, want 0.10", got)
	}
	if got := worsening(100, 110, "higher"); got >= 0 {
		t.Errorf("a rate going up worsened by %v, want a negative share", got)
	}
}

// The reference kernel must do the same work every time (or its speed
// means nothing) and must not allocate (or it starts collections that
// slow it down).
func TestReferenceKernel(t *testing.T) {
	a, b := make([]uint32, 1<<16), make([]uint32, 1<<16)
	refKernel(a)
	b[7] = 99 // the kernel clears its table
	refKernel(b)
	words := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("two runs of the kernel disagree at slot %d: %d vs %d", i, a[i], b[i])
		}
		words += int(a[i])
	}
	if words < 50_000 {
		t.Errorf("the kernel counted %d words in %d bytes of text", words, len(refText))
	}
	if allocs := testing.AllocsPerRun(3, func() { refKernel(a) }); allocs != 0 {
		t.Errorf("the kernel allocates %v times per run", allocs)
	}
	if s := machineSpeed(); !(s > 0) {
		t.Errorf("machineSpeed = %v", s)
	}
}

func TestNeededBound(t *testing.T) {
	for _, c := range []struct{ floor, dis, spread, want float64 }{
		{0.10, 0.01, 0.02, 0.10},  // the floor
		{0.10, 0.07, 0.02, 0.14},  // twice the disagreement
		{0.10, 0.01, 0.051, 0.16}, // three times the spread, rounded up
		{0.10, 0.30, 0.02, 0.25},  // capped at what the driver allows
		{0.01, 0, 0, 0.01},
	} {
		if got := neededBound(c.floor, c.dis, c.spread); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("neededBound(%v, %v, %v) = %v, want %v", c.floor, c.dis, c.spread, got, c.want)
		}
	}
}

func TestCalibrationReport(t *testing.T) {
	cal := calibration{Runs: 4, Seconds: 10, Machine: "test", Go: "go", Values: map[string]map[string][3][]float64{}}
	for _, w := range workloads {
		cal.Values[w.Name] = map[string][3][]float64{}
		for _, d := range endToEnd {
			cal.Values[w.Name][d.Name] = [3][]float64{{10, 11, 10, 12}, {11, 10, 12, 10}, {10, 11, 11, 10, 10, 12, 12, 10}}
		}
	}
	var buf bytes.Buffer
	cal.render(&buf)
	out := buf.String()
	for _, want := range []string{"## serve-fleet", "| qps | ops/s |", "## The machine", "## Bounds", "| setup_s |"} {
		if !strings.Contains(out, want) {
			t.Errorf("the report lacks %q", want)
		}
	}
}
