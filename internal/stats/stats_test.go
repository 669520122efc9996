package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestSampleSummary(t *testing.T) {
	s := &Sample{}
	for _, v := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Add(v)
	}
	if s.N() != 8 {
		t.Errorf("N = %d", s.N())
	}
	if !almost(s.Mean(), 5) {
		t.Errorf("Mean = %v", s.Mean())
	}
	// Unbiased variance of this classic data set is 32/7.
	if !almost(s.Variance(), 32.0/7.0) {
		t.Errorf("Variance = %v", s.Variance())
	}
	if !almost(s.Stddev(), math.Sqrt(32.0/7.0)) {
		t.Errorf("Stddev = %v", s.Stddev())
	}
	if s.Min() != 2 || s.Max() != 9 {
		t.Errorf("Min/Max = %v/%v", s.Min(), s.Max())
	}
	if !almost(s.Median(), 4.5) {
		t.Errorf("Median = %v", s.Median())
	}
}

func TestSampleEmptyAndSingle(t *testing.T) {
	s := &Sample{}
	if s.Mean() != 0 || s.Variance() != 0 || s.Min() != 0 || s.Max() != 0 || s.Median() != 0 {
		t.Error("empty sample should summarize to zeros")
	}
	s.Add(3)
	if s.Mean() != 3 || s.Variance() != 0 || s.Median() != 3 {
		t.Error("single-element sample wrong")
	}
}

func TestSampleMedianOdd(t *testing.T) {
	s := &Sample{}
	for _, v := range []float64{9, 1, 5} {
		s.Add(v)
	}
	if s.Median() != 5 {
		t.Errorf("Median = %v", s.Median())
	}
}

func TestAddDuration(t *testing.T) {
	s := &Sample{}
	s.AddDuration(1500 * time.Millisecond)
	if s.N() != 1 || !almost(s.Mean(), 1.5) {
		t.Errorf("AddDuration(1.5s): N = %d, Mean = %v", s.N(), s.Mean())
	}
}

func TestSpeedupAndRelDiff(t *testing.T) {
	// Table 4 of the paper: sequential 90s, Impl1 45.9s -> 1.96x.
	sp := Speedup(90, 45.9)
	if math.Abs(sp-1.9608) > 0.001 {
		t.Errorf("Speedup = %v", sp)
	}
	// Impl2 speedup 2.47 vs Impl1 1.96 -> +26%.
	rd := RelDiff(2.47, 1.96)
	if math.Abs(rd-0.2602) > 0.001 {
		t.Errorf("RelDiff = %v", rd)
	}
	if Speedup(1, 0) != 0 || RelDiff(1, 0) != 0 {
		t.Error("zero guards failed")
	}
}

// Property: variance is non-negative and mean lies within [min, max].
func TestSampleInvariants(t *testing.T) {
	if err := quick.Check(func(vs []float64) bool {
		s := &Sample{}
		for _, v := range vs {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return true
			}
			// Scale into a sane range to avoid float overflow artifacts.
			s.Add(math.Mod(v, 1e6))
		}
		if s.N() == 0 {
			return true
		}
		return s.Variance() >= 0 && s.Mean() >= s.Min()-1e-6 && s.Mean() <= s.Max()+1e-6
	}, nil); err != nil {
		t.Error(err)
	}
}

func TestFormatting(t *testing.T) {
	if FormatSeconds(46.74) != "46.7" {
		t.Errorf("FormatSeconds = %q", FormatSeconds(46.74))
	}
	if FormatSpeedup(4.706) != "4.71" {
		t.Errorf("FormatSpeedup = %q", FormatSpeedup(4.706))
	}
	if FormatPercent(0.165) != "+16.5%" {
		t.Errorf("FormatPercent = %q", FormatPercent(0.165))
	}
	if FormatPercent(-0.0021) != "-0.2%" {
		t.Errorf("FormatPercent = %q", FormatPercent(-0.0021))
	}
	if FormatPercent(0) != "0.0%" {
		t.Errorf("FormatPercent(0) = %q", FormatPercent(0))
	}
}

func TestTableRender(t *testing.T) {
	tb := NewTable("Table 2. 4-core results", "", "best config.", "exec. time (s)", "speed-up")
	tb.AddRow("Sequential", "-", "220.0", "-")
	tb.AddRow("Implementation 1", "(3, 1, 0)", "46.7", "4.71")
	out := tb.String()
	if !strings.Contains(out, "Table 2. 4-core results") {
		t.Error("title missing")
	}
	if !strings.Contains(out, "Implementation 1") || !strings.Contains(out, "(3, 1, 0)") {
		t.Error("row content missing")
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	// title + rule + header + rule + 2 rows = 6 lines
	if len(lines) != 6 {
		t.Errorf("got %d lines:\n%s", len(lines), out)
	}
	// Data rows align: every line after the header rule has same width or less.
	if len(lines[4]) == 0 || len(lines[5]) == 0 {
		t.Error("empty data lines")
	}
}

func TestTableRaggedRows(t *testing.T) {
	tb := NewTable("", "a", "b")
	tb.AddRow("only-one")
	tb.AddRow("x", "y", "z-extra")
	out := tb.String()
	if !strings.Contains(out, "z-extra") {
		t.Error("extra cell dropped")
	}
	if !strings.Contains(out, "only-one") {
		t.Error("short row dropped")
	}
}

func TestTableAddRowf(t *testing.T) {
	tb := NewTable("", "n", "v")
	tb.AddRowf("row", 42)
	if !strings.Contains(tb.String(), "42") {
		t.Error("AddRowf did not format int")
	}
	if tb.NumRows() != 1 {
		t.Errorf("NumRows = %d", tb.NumRows())
	}
}

func TestTableNoTitleNoHeaders(t *testing.T) {
	tb := &Table{}
	tb.AddRow("solo")
	out := tb.String()
	if strings.Contains(out, "=") || strings.Contains(out, "-") {
		t.Errorf("rules rendered without title/headers:\n%s", out)
	}
	if !strings.Contains(out, "solo") {
		t.Error("row missing")
	}
}
