// Command bench is the repository's benchmark: five workloads over the
// whole life cycle of a desktop-search index, each reporting the same 14
// end-to-end metrics (or, with -trace 1, the per-layer ones) as medians
// of repeated life cycles. README.md explains the workloads and metrics;
// BENCHMARK.json at the repository root is the contract it is run under.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// calibrationRuns is the file under -out that -calibrate saves its runs
// to and -render reads.
const calibrationRuns = "calibration-runs.json"

func main() {
	var (
		name      = flag.String("workload", "", "workload to run (see -list)")
		seed      = flag.Int64("seed", 1, "seed of the op stream")
		seconds   = flag.Int("seconds", runSeconds, "sizes the timed query passes: about this many seconds of ops")
		trace     = flag.Int("trace", 0, "1 records spans and reports the per-layer metrics")
		list      = flag.Bool("list", false, "print every workload and metric by name, with units, and exit")
		spec      = flag.Bool("spec", false, "print BENCHMARK.json as the registry in this program defines it, and exit")
		smoke     = flag.Bool("smoke", false, "run every workload on a tiny corpus, as the self-test does")
		calibrate = flag.Int("calibrate", 0, "run two alternating sets of this many runs per workload and report spreads and bounds")
		render    = flag.Bool("render", false, "print the report of the last -calibrate again, from its saved runs")
		tmp       = flag.String("tmp", filepath.Join(".bench_build", "tmp"), "directory that saved indexes are written under")
		outDir    = flag.String("out", filepath.Join("bench", "out"), "directory that traces and calibration runs are written to")
	)
	flag.Parse()
	var err error
	switch {
	case *list:
		fmt.Println("workloads:")
		for _, w := range workloads {
			fmt.Printf("  %-14s %s\n", w.Name, w.Why)
		}
		printMetricList(os.Stdout)
	case *spec:
		err = printSpec(os.Stdout)
	case *smoke:
		err = runSmoke(*seed, *tmp)
	case *calibrate > 0:
		err = runCalibration(*calibrate, *seconds, os.Stdout, filepath.Join(*outDir, calibrationRuns))
	case *render:
		err = renderCalibration(filepath.Join(*outDir, calibrationRuns), os.Stdout)
	default:
		err = runWorkload(*name, *seed, *seconds, *trace == 1, *tmp, *outDir)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// runSmoke runs every workload, untraced and traced, at smoke size.
func runSmoke(seed int64, tmp string) error {
	for i := range workloads {
		for _, traced := range []bool{false, true} {
			out, err := measure(&workloads[i], seed, runSeconds, traced, smokeSize, tmp)
			if err != nil {
				return fmt.Errorf("%s (trace %v): %w", workloads[i].Name, traced, err)
			}
			fmt.Printf("%s trace=%v ok: %d ops, %d metrics\n", workloads[i].Name, traced, out.attempted, len(out.metrics))
		}
	}
	return nil
}

// runWorkload is what the driver asks for: one measured run, its env
// line, its metrics by name, and the result line last.
func runWorkload(name string, seed int64, seconds int, traced bool, tmp, outDir string) error {
	w := findWorkload(name)
	if w == nil {
		return fmt.Errorf("unknown workload %q (try -list)", name)
	}
	if seconds < 1 {
		return fmt.Errorf("-seconds must be at least 1")
	}
	start := time.Now()
	out, err := measure(w, seed, seconds, traced, fullSize, tmp)
	if err != nil {
		return err
	}
	out.env["wall_s"] = time.Since(start).Seconds()
	env, err := json.Marshal(out.env)
	if err != nil {
		return err
	}
	fmt.Printf("env %s\n", env)
	defs := endToEnd
	if traced {
		defs = perLayer
		path := filepath.Join(outDir, "trace-"+w.Name+".json")
		if err := writeSpans(path, out.spans); err != nil {
			return err
		}
		fmt.Printf("%d spans written to %s\n", len(out.spans), path)
		printLayerTable(os.Stdout, out.spans)
	}
	return printResult(out, defs)
}

// metricValue is one entry of the result line's metrics object.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// printResult writes the metrics by name, then the result line the
// driver reads: one JSON object, last on standard output.
func printResult(out *outcome, defs []metricDef) error {
	metrics := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v, ok := out.metrics[d.Name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.Name)
		}
		metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
		fmt.Printf("%-32s %14.4f %s\n", d.Name, v, d.Unit)
	}
	var stray []string
	for n := range out.metrics {
		if _, ok := metrics[n]; !ok {
			stray = append(stray, n)
		}
	}
	if len(stray) > 0 {
		sort.Strings(stray)
		return fmt.Errorf("measured metrics the registry does not list: %v", stray)
	}
	line, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{true, out.attempted, out.failed, metrics})
	if err != nil {
		return err
	}
	fmt.Printf("%s\n", line)
	return nil
}
