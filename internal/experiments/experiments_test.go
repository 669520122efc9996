package experiments

import (
	"math"
	"strings"
	"sync"
	"testing"

	"desksearch/internal/core"
	"desksearch/internal/corpus"
	"desksearch/internal/platform"
)

// paperShape is the full 51k-file corpus metadata: the profiles' Table 1
// targets are absolute seconds for this benchmark, so experiments must run
// at full shape (the simulator makes that cheap).
var (
	statsOnce sync.Once
	statsVal  corpus.Stats
)

func paperShape() corpus.Stats {
	statsOnce.Do(func() { statsVal = corpus.Describe(corpus.PaperSpec()) })
	return statsVal
}

func fastSweep() SweepOptions {
	// Reduced grid and single rep keep the test suite quick; the shape
	// assertions hold on the full grid too (cmd/experiments runs it).
	return SweepOptions{Reps: 1, Batch: 32, Jitter: 0.005, Seed: 1, MaxExtractors: 10, MaxUpdaters: 5}
}

func TestTableNumber(t *testing.T) {
	for _, tc := range []struct {
		p    platform.Profile
		want int
	}{
		{platform.QuadCore(), 2},
		{platform.Xeon8(), 3},
		{platform.Manycore32(), 4},
	} {
		got, err := TableNumber(tc.p)
		if err != nil || got != tc.want {
			t.Errorf("%s: %d, %v", tc.p.Name, got, err)
		}
	}
	if _, err := TableNumber(platform.Profile{Cores: 7}); err == nil {
		t.Error("unknown platform accepted")
	}
}

func TestPaperDataTranscription(t *testing.T) {
	// Spot-check the embedded reference numbers against the paper text.
	if PaperSequential[2] != 220 || PaperSequential[3] != 105 || PaperSequential[4] != 90 {
		t.Error("sequential baselines wrong")
	}
	if PaperBest[4][core.ReplicatedSearch].Speedup != 3.50 {
		t.Error("Table 4 Impl3 speed-up wrong")
	}
	if PaperBest[2][core.SharedIndex].Tuple != "(3, 1, 0)" {
		t.Error("Table 2 Impl1 tuple wrong")
	}
	if len(PaperTable1) != 3 || PaperTable1[1].Read != 47 {
		t.Error("Table 1 transcription wrong")
	}
	for tbl := 2; tbl <= 4; tbl++ {
		if len(PaperBest[tbl]) != 3 {
			t.Errorf("table %d has %d implementations", tbl, len(PaperBest[tbl]))
		}
	}
}

func TestRunTable1MatchesPaper(t *testing.T) {
	res := RunTable1(paperShape())
	if len(res.Rows) != 3 {
		t.Fatalf("%d rows", len(res.Rows))
	}
	for _, row := range res.Rows {
		// Unit costs are derived from the Table 1 targets, so the modeled
		// stage times must land on the paper's values for any corpus.
		pairs := []struct{ got, want float64 }{
			{row.Filename, row.Paper.Filename},
			{row.Read, row.Paper.Read},
			{row.ReadExtract, row.Paper.ReadExtract},
			{row.Insert, row.Paper.Insert},
		}
		for i, pr := range pairs {
			if math.Abs(pr.got-pr.want) > 0.6 {
				t.Errorf("%s col %d: %.2f vs paper %.2f", row.Platform, i, pr.got, pr.want)
			}
		}
	}
}

func TestTable1Render(t *testing.T) {
	res := RunTable1(paperShape())
	out := res.Render()
	for _, want := range []string{"Table 1", "4-core Intel machine", "read files", "index update"} {
		if !strings.Contains(out, want) {
			t.Errorf("Render missing %q:\n%s", want, out)
		}
	}
	cmp := res.RenderComparison()
	if !strings.Contains(cmp, "/") || !strings.Contains(cmp, "77.0") {
		t.Errorf("comparison missing paper values:\n%s", cmp)
	}
}

// bestConfigs runs one Table 2–4 sweep on the fast grid. Each takes ~3 s —
// together most of the tier-1 run — so -short (the race job) skips them;
// the plain tier-1 run keeps them.
func bestConfigs(t *testing.T, p platform.Profile) BestConfigResult {
	t.Helper()
	if testing.Short() {
		t.Skip("Table 2–4 sweep")
	}
	res, err := RunBestConfigs(p, paperShape(), fastSweep())
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestRunBestConfigsTable4Shape(t *testing.T) {
	res := bestConfigs(t, platform.Manycore32())
	if res.TableNo != 4 {
		t.Fatalf("TableNo = %d", res.TableNo)
	}
	if len(res.Cells) != 3 {
		t.Fatalf("%d cells", len(res.Cells))
	}
	c1, c2, c3 := res.Cells[0], res.Cells[1], res.Cells[2]
	if c1.Implementation != core.SharedIndex || c3.Implementation != core.ReplicatedSearch {
		t.Fatal("cell order wrong")
	}
	// The paper's headline: Impl1 slowest, Impl3 fastest, gaps material.
	if !(c1.Exec > c2.Exec && c2.Exec > c3.Exec) {
		t.Errorf("exec ordering: %.1f / %.1f / %.1f", c1.Exec, c2.Exec, c3.Exec)
	}
	if c3.Speedup < 2.8 || c3.Speedup > 4.2 {
		t.Errorf("Impl3 speed-up %.2f, paper 3.50", c3.Speedup)
	}
	if math.Abs(c1.Speedup-1.96)/1.96 > 0.25 {
		t.Errorf("Impl1 speed-up %.2f, paper 1.96", c1.Speedup)
	}
	// Variance column: Impl1 is the reference (0), the others positive.
	if c1.Variance != 0 {
		t.Errorf("Impl1 variance %.3f", c1.Variance)
	}
	if c2.Variance <= 0 || c3.Variance <= c2.Variance {
		t.Errorf("variance ordering: %.3f, %.3f", c2.Variance, c3.Variance)
	}
}

func TestRunBestConfigsTable2Equivalence(t *testing.T) {
	res := bestConfigs(t, platform.QuadCore())
	if res.TableNo != 2 {
		t.Fatalf("TableNo = %d", res.TableNo)
	}
	// All three implementations within 10% of each other.
	lo, hi := math.Inf(1), 0.0
	for _, c := range res.Cells {
		lo = math.Min(lo, c.Exec)
		hi = math.Max(hi, c.Exec)
	}
	if hi/lo > 1.10 {
		t.Errorf("4-core implementations not equivalent: %.1f..%.1f", lo, hi)
	}
	// Speed-ups near the paper's ≈4.7.
	for _, c := range res.Cells {
		if c.Speedup < 4.0 || c.Speedup > 5.6 {
			t.Errorf("%v speed-up %.2f, paper ≈4.7", c.Implementation, c.Speedup)
		}
	}
	// Sequential baseline calibrated to the paper's.
	if math.Abs(res.Sequential-220)/220 > 0.05 {
		t.Errorf("sequential %.1f, paper 220", res.Sequential)
	}
}

func TestRunBestConfigsTable3Ordering(t *testing.T) {
	res := bestConfigs(t, platform.Xeon8())
	c1, c2, c3 := res.Cells[0], res.Cells[1], res.Cells[2]
	if !(c1.Exec >= c2.Exec && c2.Exec >= c3.Exec) {
		t.Errorf("8-core ordering: %.1f / %.1f / %.1f", c1.Exec, c2.Exec, c3.Exec)
	}
	// Speed-ups compressed toward ≈2 by the disk floor.
	for _, c := range res.Cells {
		if c.Speedup < 1.4 || c.Speedup > 2.5 {
			t.Errorf("%v speed-up %.2f outside the paper's 1.76–2.12 region", c.Implementation, c.Speedup)
		}
	}
}

func TestBestConfigRender(t *testing.T) {
	res := bestConfigs(t, platform.Manycore32())
	out := res.Render()
	for _, want := range []string{"Table 4", "Sequential", "Implementation 1", "Implementation 3", "speed-up", "variance", "("} {
		if !strings.Contains(out, want) {
			t.Errorf("Render missing %q:\n%s", want, out)
		}
	}
	cmp := res.RenderComparison()
	for _, want := range []string{"model vs paper", "(9, 4, 0)", "3.50"} {
		if !strings.Contains(cmp, want) {
			t.Errorf("comparison missing %q:\n%s", want, cmp)
		}
	}
}

func TestRunBestConfigsRejectsUnknownPlatform(t *testing.T) {
	p := platform.QuadCore()
	p.Cores = 6
	if _, err := RunBestConfigs(p, paperShape(), fastSweep()); err == nil {
		t.Error("unknown platform accepted")
	}
}

func TestScalingCurveShapes(t *testing.T) {
	o := fastSweep()
	// Implementation 1 on the 32-core platform flattens against the lock:
	// the curve's best speed-up stays near 2 even at x=16.
	lockBound, err := RunScalingCurve(platform.Manycore32(), paperShape(), core.SharedIndex, 16, o)
	if err != nil {
		t.Fatal(err)
	}
	if best := lockBound.Best(); best.Speedup > 2.4 {
		t.Errorf("Impl1 curve reached %.2fx — lock bound missing", best.Speedup)
	}
	// Implementation 3 keeps climbing well past it.
	free, err := RunScalingCurve(platform.Manycore32(), paperShape(), core.ReplicatedSearch, 16, o)
	if err != nil {
		t.Fatal(err)
	}
	if best := free.Best(); best.Speedup < 3.0 {
		t.Errorf("Impl3 curve peaked at %.2fx, want ≥3", best.Speedup)
	}
	// Both curves rise from x=1 (no speed-up) toward their plateaus.
	if free.Points[0].Speedup > 2.0 {
		t.Errorf("x=1 speed-up %.2f implausibly high", free.Points[0].Speedup)
	}
	if len(free.Points) != 16 {
		t.Errorf("%d points", len(free.Points))
	}
	out := free.Render()
	for _, want := range []string{"Implementation 3", "x= 1", "x=16", "#"} {
		if !strings.Contains(out, want) {
			t.Errorf("curve render missing %q:\n%s", want, out)
		}
	}
}
