package experiments

import (
	"fmt"

	"desksearch/internal/autotune"
	"desksearch/internal/core"
	"desksearch/internal/corpus"
	"desksearch/internal/platform"
	"desksearch/internal/simmodel"
	"desksearch/internal/stats"
)

// SweepOptions control a Tables 2–4 reproduction run.
type SweepOptions struct {
	// Reps is the number of jittered runs averaged per configuration
	// (the paper ran each configuration five times). Zero selects 5.
	Reps int
	// Batch is the simulator fidelity knob (files per event). Zero
	// selects 16.
	Batch int
	// Jitter is the per-run service-time noise. Zero selects 1 %.
	Jitter float64
	// Seed makes the whole sweep reproducible.
	Seed int64
	// MaxExtractors and MaxUpdaters shrink the sweep grid (0 = the
	// default space for the platform). Tests use these to stay fast.
	MaxExtractors, MaxUpdaters int
}

func (o SweepOptions) normalized() SweepOptions {
	if o.Reps < 1 {
		o.Reps = 5
	}
	if o.Batch < 1 {
		o.Batch = 16
	}
	if o.Jitter == 0 {
		o.Jitter = 0.01
	}
	return o
}

// Cell is one implementation's measured row.
type Cell struct {
	Implementation core.Implementation
	// Config is the best configuration found by the sweep.
	Config core.Config
	// Exec is its mean execution time in seconds.
	Exec float64
	// Speedup is Sequential / Exec.
	Speedup float64
	// Variance is the relative difference of Speedup from
	// Implementation 1's, the paper's "variance" column.
	Variance float64
	// Paper carries the published reference values.
	Paper PaperCell
}

// BestConfigResult reproduces one of the paper's Tables 2–4.
type BestConfigResult struct {
	Platform platform.Profile
	// TableNo is the paper table this reproduces (2, 3, or 4).
	TableNo int
	// Sequential is the modeled sequential baseline (calibrated to the
	// paper's).
	Sequential float64
	// Cells holds Implementations 1–3 in order.
	Cells []Cell
}

// RunBestConfigs sweeps the configuration space of every implementation on
// the platform and reports the best of each — the experiment behind the
// paper's Tables 2–4.
func RunBestConfigs(p platform.Profile, cs corpus.Stats, o SweepOptions) (BestConfigResult, error) {
	o = o.normalized()
	tableNo, err := TableNumber(p)
	if err != nil {
		return BestConfigResult{}, err
	}
	simOpt := simmodel.Options{Batch: o.Batch, Jitter: o.Jitter, Seed: o.Seed}
	seq, err := simmodel.SequentialBaseline(p, cs, simOpt)
	if err != nil {
		return BestConfigResult{}, err
	}
	res := BestConfigResult{Platform: p, TableNo: tableNo, Sequential: seq}

	var impl1Speedup float64
	for _, im := range []core.Implementation{core.SharedIndex, core.ReplicatedJoin, core.ReplicatedSearch} {
		space := autotune.DefaultSpace(im, p.Cores)
		if o.MaxExtractors > 0 {
			space.MaxExtractors = o.MaxExtractors
		}
		if o.MaxUpdaters > 0 {
			space.MaxUpdaters = o.MaxUpdaters
		}
		best, err := autotune.Exhaustive(space, autotune.SimObjective(p, cs, simOpt, o.Reps), autotune.Options{})
		if err != nil {
			return BestConfigResult{}, fmt.Errorf("experiments: %s on %s: %w", im, p.Name, err)
		}
		cell := Cell{
			Implementation: im,
			Config:         best.Config,
			Exec:           best.Cost,
			Speedup:        stats.Speedup(seq, best.Cost),
			Paper:          PaperBest[tableNo][im],
		}
		if im == core.SharedIndex {
			impl1Speedup = cell.Speedup
		}
		cell.Variance = stats.RelDiff(cell.Speedup, impl1Speedup)
		res.Cells = append(res.Cells, cell)
	}
	return res, nil
}

// Render prints the result in the paper's table layout.
func (r BestConfigResult) Render() string {
	tb := stats.NewTable(
		fmt.Sprintf("Table %d. Execution time and speed-up for the best configurations on the %s (simulated)", r.TableNo, r.Platform.Name),
		"", "best config.", "exec. time (s)", "speed-up", "variance")
	tb.AddRow("Sequential", "-", stats.FormatSeconds(r.Sequential), "-", "-")
	for _, c := range r.Cells {
		tb.AddRow(c.Implementation.String(), c.Config.Tuple(),
			stats.FormatSeconds(c.Exec), stats.FormatSpeedup(c.Speedup),
			stats.FormatPercent(c.Variance))
	}
	return tb.String()
}

// RenderComparison prints model-vs-paper for every cell.
func (r BestConfigResult) RenderComparison() string {
	tb := stats.NewTable(
		fmt.Sprintf("Table %d comparison — %s (model vs paper)", r.TableNo, r.Platform.Name),
		"", "config (model/paper)", "exec s (model/paper)", "speed-up (model/paper)")
	tb.AddRow("Sequential", "-",
		fmt.Sprintf("%s / %s", stats.FormatSeconds(r.Sequential), stats.FormatSeconds(PaperSequential[r.TableNo])),
		"-")
	for _, c := range r.Cells {
		tb.AddRow(c.Implementation.String(),
			fmt.Sprintf("%s / %s", c.Config.Tuple(), c.Paper.Tuple),
			fmt.Sprintf("%s / %s", stats.FormatSeconds(c.Exec), stats.FormatSeconds(c.Paper.Exec)),
			fmt.Sprintf("%s / %s", stats.FormatSpeedup(c.Speedup), stats.FormatSpeedup(c.Paper.Speedup)),
		)
	}
	return tb.String()
}

// Table1Result reproduces the paper's Table 1 on the simulator.
type Table1Result struct {
	Rows []Table1Row
}

// Table1Row is one platform's modeled stage times.
type Table1Row struct {
	Platform                            string
	Filename, Read, ReadExtract, Insert float64
	Paper                               PaperStageRow
}

// RunTable1 computes the modeled sequential stage times for all three
// platforms. The platform profiles are calibrated against the paper's
// Table 1, so agreement here validates the unit-cost derivation (and the
// corpus statistics feeding it), not an independent measurement.
func RunTable1(cs corpus.Stats) Table1Result {
	var res Table1Result
	for i, p := range platform.All() {
		f, rd, re, ins := simmodel.StageTimes(p, cs)
		res.Rows = append(res.Rows, Table1Row{
			Platform: p.Name,
			Filename: f, Read: rd, ReadExtract: re, Insert: ins,
			Paper: PaperTable1[i],
		})
	}
	return res
}

// Render prints Table 1 in the paper's layout.
func (r Table1Result) Render() string {
	tb := stats.NewTable(
		"Table 1. Execution times for sequential index generation (simulated)",
		"", "filename generation", "read files", "read + extract", "index update")
	for _, row := range r.Rows {
		tb.AddRow(row.Platform,
			stats.FormatSeconds(row.Filename), stats.FormatSeconds(row.Read),
			stats.FormatSeconds(row.ReadExtract), stats.FormatSeconds(row.Insert))
	}
	return tb.String()
}

// RenderComparison prints model-vs-paper stage times.
func (r Table1Result) RenderComparison() string {
	tb := stats.NewTable(
		"Table 1 comparison (model / paper, seconds)",
		"", "filename", "read", "read+extract", "index update")
	for _, row := range r.Rows {
		pair := func(m, pp float64) string {
			return fmt.Sprintf("%s / %s", stats.FormatSeconds(m), stats.FormatSeconds(pp))
		}
		tb.AddRow(row.Platform,
			pair(row.Filename, row.Paper.Filename),
			pair(row.Read, row.Paper.Read),
			pair(row.ReadExtract, row.Paper.ReadExtract),
			pair(row.Insert, row.Paper.Insert))
	}
	return tb.String()
}
