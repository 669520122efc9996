package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// calibration is what -calibrate measures and -render prints: the two
// sets of runs with everything CALIBRATION.md says about them. It is
// saved as JSON so the report can be printed again (after the bounds in
// the registry were set from it) without another half hour of runs.
type calibration struct {
	Runs, Seconds int
	Machine, Go   string
	WallS         float64
	FailedOps     int
	// Values[workload][metric] holds set A's values, set B's values,
	// and the wall-clock values of both in run order (A1, B1, A2, …).
	Values map[string]map[string][3][]float64
}

// runChild runs this binary once, as the driver would, and returns the
// result line's metrics, the wall-clock medians from the env line, and
// how many ops failed.
func runChild(exe, workload string, seed int64, seconds int) (metrics map[string]metricValue, wallClock map[string]float64, failed int, err error) {
	cmd := exec.Command(exe, "--workload", workload, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.Itoa(seconds), "--trace", "0")
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, nil, 0, fmt.Errorf("%s seed %d: %w", workload, seed, err)
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res struct {
		Correct bool                   `json:"correct"`
		Failed  int                    `json:"failed"`
		Metrics map[string]metricValue `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return nil, nil, 0, fmt.Errorf("%s seed %d: result line: %w", workload, seed, err)
	}
	if !res.Correct {
		return nil, nil, 0, fmt.Errorf("%s seed %d: run reported correct=false", workload, seed)
	}
	var env struct {
		WallClock map[string]float64 `json:"wall_clock"`
	}
	for _, l := range lines {
		if e, ok := strings.CutPrefix(l, "env "); ok {
			if err := json.Unmarshal([]byte(e), &env); err != nil {
				return nil, nil, 0, fmt.Errorf("%s seed %d: env line: %w", workload, seed, err)
			}
		}
	}
	return res.Metrics, env.WallClock, res.Failed, nil
}

// runCalibration makes two sets of runs per workload — set A and set B
// of the same code, alternating A, B, A, B so both see the same drift of
// the machine, run i of either set with seed i+1 — saves them to rawPath
// and prints the report.
func runCalibration(runs, seconds int, w io.Writer, rawPath string) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	start := time.Now()
	cal := calibration{Runs: runs, Seconds: seconds, Go: runtime.Version(),
		Machine: fmt.Sprintf("%d CPUs, %s, %s/%s", runtime.NumCPU(), cpuModel(), runtime.GOOS, runtime.GOARCH),
		Values:  make(map[string]map[string][3][]float64)}
	for i := 0; i < runs; i++ {
		for _, wl := range workloads {
			if cal.Values[wl.Name] == nil {
				cal.Values[wl.Name] = make(map[string][3][]float64)
			}
			for set := 0; set < 2; set++ {
				metrics, wall, failed, err := runChild(exe, wl.Name, int64(i+1), seconds)
				if err != nil {
					return err
				}
				cal.FailedOps += failed
				for name, v := range metrics {
					vals := cal.Values[wl.Name][name]
					vals[set] = append(vals[set], v.Value)
					vals[2] = append(vals[2], wall[name])
					cal.Values[wl.Name][name] = vals
				}
			}
		}
		fmt.Fprintf(os.Stderr, "calibrate: run %d of %d done (%.0f s)\n", i+1, runs, time.Since(start).Seconds())
	}
	cal.WallS = time.Since(start).Seconds()

	data, err := json.MarshalIndent(cal, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(rawPath), 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(rawPath, data, 0o644); err != nil {
		return err
	}
	cal.render(w)
	return nil
}

// renderCalibration prints the report of a calibration saved at rawPath.
func renderCalibration(rawPath string, w io.Writer) error {
	data, err := os.ReadFile(rawPath)
	if err != nil {
		return err
	}
	var cal calibration
	if err := json.Unmarshal(data, &cal); err != nil {
		return fmt.Errorf("%s: %w", rawPath, err)
	}
	cal.render(w)
	return nil
}

// spread is the distance between the quartiles as a share of the median,
// the number the driver holds against a metric's bound.
func spread(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	return (q3 - q1) / median(xs)
}

// worsening is how much worse b is than a, as a share of a, for a metric
// whose better direction is given; negative when b is better.
func worsening(a, b float64, better string) float64 {
	if better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// maxBound is the largest bound the driver's contract allows.
const maxBound = 0.25

// floors are the smallest bounds worth holding a metric to, whatever the
// calibration measures: below them a change is lost in the machine.
var floors = map[string]float64{
	"setup_s": 0.20, "p95_ms": 0.15, "resident_mb": 0.03, "index_bytes_per_corpus_byte": 0.01,
	"build_mb_per_s": 0.10, "update_files_per_s": 0.10, "open_ms": 0.10, "p50_ms": 0.10,
	"and_p50_ms": 0.10, "bm25_p50_ms": 0.10, "phrase_p50_ms": 0.10, "prefix_p50_ms": 0.10,
	"snippet_p50_ms": 0.10, "qps": 0.10,
}

// neededBound is the bound a metric needs: at least its floor, twice the
// worst set-to-set disagreement and three times the worst spread,
// rounded up to a whole percent — but never more than the contract
// allows.
func neededBound(floor, worstDisagreement, worstSpread float64) float64 {
	return min(maxBound, math.Ceil(max(floor, 2*worstDisagreement, 3*worstSpread)*100-1e-9)/100)
}

// render writes the report as Markdown: per workload each metric's
// medians, spreads and set-to-set disagreement beside the spread of the
// wall-clock values, then the bound each metric needs against the one
// the registry holds.
func (cal *calibration) render(w io.Writer) {
	n := cal.Runs
	fmt.Fprintf(w, "# Calibration\n\n")
	fmt.Fprintf(w, "Written by `bench -calibrate %d -seconds %d`: two sets (A, B) of %d runs per workload of the same code, alternating A, B, run *i* of either set with `--seed` *i*. (`bench -render` prints it again from `bench/out/calibration-runs.json`.)\n\n", n, cal.Seconds, n)
	fmt.Fprintf(w, "- machine: %s\n- Go: %s, GOMAXPROCS min(nproc, 4), GOGC default\n- wall time: %.0f s; ops that failed in any run: %d\n\n", cal.Machine, cal.Go, cal.WallS, cal.FailedOps)
	fmt.Fprintf(w, "`spread` is (Q3 − Q1) / median over a set's %d runs, quartiles as Python's `statistics.quantiles(n=4)`; `B vs A` is how much worse set B's median is than set A's (negative: better). The driver accepts the benchmark only if every spread and every `B vs A` stays within the metric's bound. `wall-clock spread` is the spread of the same %d+%d runs' values as measured, before they are put at the reference machine speed (README, How a run is built): what the machine does to a plain median.\n\n", n, n, n)

	worstSpread, worstDis := map[string]float64{}, map[string]float64{}
	for _, wl := range workloads {
		fmt.Fprintf(w, "## %s\n\n| metric | unit | median A | spread A | median B | spread B | B vs A | wall-clock spread |\n|---|---|---:|---:|---:|---:|---:|---:|\n", wl.Name)
		for _, d := range endToEnd {
			v := cal.Values[wl.Name][d.Name]
			a, b, wall := v[0], v[1], v[2]
			sa, sb, dis := spread(a), spread(b), worsening(median(a), median(b), d.Better)
			fmt.Fprintf(w, "| %s | %s | %.4g | %.1f%% | %.4g | %.1f%% | %+.1f%% | %.1f%% |\n", d.Name, d.Unit, median(a), sa*100, median(b), sb*100, dis*100, spread(wall)*100)
			worstSpread[d.Name] = max(worstSpread[d.Name], sa, sb)
			worstDis[d.Name] = max(worstDis[d.Name], math.Abs(dis))
		}
		fmt.Fprintln(w)
	}

	// The machine's own state, told by the one metric that does not
	// depend on the seed at all.
	fmt.Fprintf(w, "## The machine\n\n`build_mb_per_s` of build-update, run by run in the order they ran (A1, B1, A2, …): the same corpus built by the same code. First as measured, then at the reference speed.\n\n")
	v := cal.Values[workloads[0].Name]["build_mb_per_s"]
	reported := make([]float64, 0, 2*n)
	for i := range v[0] {
		reported = append(reported, v[0][i], v[1][i])
	}
	for _, row := range []struct {
		name string
		vals []float64
	}{{"wall-clock", v[2]}, {"reported", reported}} {
		fmt.Fprintf(w, "- %s:", row.name)
		for _, x := range row.vals {
			fmt.Fprintf(w, " %.1f", x)
		}
		fmt.Fprintf(w, " (spread %.1f%%)\n", spread(row.vals)*100)
	}

	fmt.Fprintf(w, "\n## Bounds\n\n`needs` is the largest of the metric's floor, twice its worst disagreement and three times its worst spread over the five workloads, rounded up to a whole percent and capped at the %.0f%% the driver allows; `bound` is what BENCHMARK.json holds.\n\n", maxBound*100)
	fmt.Fprintf(w, "| metric | worst spread | worst disagreement | floor | needs | bound |\n|---|---:|---:|---:|---:|---:|\n")
	for _, d := range endToEnd {
		fmt.Fprintf(w, "| %s | %.1f%% | %.1f%% | %.0f%% | %.0f%% | %.0f%% |\n", d.Name, worstSpread[d.Name]*100, worstDis[d.Name]*100,
			floors[d.Name]*100, neededBound(floors[d.Name], worstDis[d.Name], worstSpread[d.Name])*100, d.Bound*100)
	}
}

// cpuModel returns the processor's name from /proc/cpuinfo, if readable.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown CPU"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if name, ok := strings.CutPrefix(sc.Text(), "model name"); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
		}
	}
	return "unknown CPU"
}
