// Command corpusgen materializes the synthetic benchmark corpus — the
// stand-in for the paper's 51,000-file / 869 MB extracted-text benchmark —
// to a directory, or just describes it.
//
// Usage:
//
//	corpusgen -out DIR [-scale F] [-seed N]
//	corpusgen -describe [-scale F]
package main

import (
	"flag"
	"fmt"
	"os"

	"desksearch/internal/corpus"
)

func main() {
	var (
		out      = flag.String("out", "", "directory to write the corpus into")
		describe = flag.Bool("describe", false, "print corpus statistics without writing files")
		scale    = flag.Float64("scale", 1.0/64, "scale factor relative to the paper's 869 MB benchmark")
		seed     = flag.Int64("seed", 0, "generation seed (0 = the spec default)")
	)
	flag.Parse()
	if *out == "" && !*describe {
		fmt.Fprintln(os.Stderr, "usage: corpusgen (-out DIR | -describe) [-scale F]")
		os.Exit(2)
	}

	spec := corpus.PaperSpec().Scale(*scale)
	if *seed != 0 {
		spec.Seed = *seed
	}

	if *describe {
		report(corpus.Describe(spec))
		return
	}

	stats, err := corpus.Generate(spec, corpus.Dir(*out))
	if err != nil {
		fatal(err)
	}
	report(stats)
	fmt.Printf("written to %s\n", *out)
}

func report(stats corpus.Stats) {
	fmt.Printf("files:       %d (%d large)\n", len(stats.Files), stats.Spec.LargeFiles)
	fmt.Printf("total bytes: %.1f MB\n", float64(stats.TotalBytes)/(1<<20))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "corpusgen:", err)
	os.Exit(1)
}
