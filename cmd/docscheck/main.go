// Command docscheck is the CI doc-drift gate for the DSIX format spec:
// it verifies that the codec version constants declared in
// internal/index/codec.go agree with the versions documented in
// docs/FORMAT.md, so the spec cannot silently rot as the codec evolves.
//
// Checks:
//
//  1. every version constant in the codec (FrameVersion,
//     LazySegmentVersion) has a matching "### vN — ..." section in the
//     spec;
//  2. the spec has no "### vN" section for a version the codec lacks
//     (retired versions get a table row, not a section);
//  3. the spec names the frame magic ("DSIX").
//
// Usage (normally via `make docs-check`):
//
//	docscheck [-codec internal/index/codec.go] [-spec docs/FORMAT.md]
//
// Exits non-zero with one line per finding when the two drift apart.
package main

import (
	"flag"
	"fmt"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// constRe matches the codec's version constant declarations, e.g.
// "FrameVersion = 9", inside the const block.
var constRe = regexp.MustCompile(`(?m)^\t([A-Za-z]*[Vv]ersion)\s*=\s*(\d+)\b`)

// headingRe matches the spec's version section headings:
// "### v9 — the frame".
var headingRe = regexp.MustCompile(`(?m)^### v(\d+)\b`)

func main() {
	codecPath := flag.String("codec", "internal/index/codec.go", "codec source file declaring the version constants")
	specPath := flag.String("spec", "docs/FORMAT.md", "format specification to check against")
	flag.Parse()

	codec, err := os.ReadFile(*codecPath)
	if err != nil {
		fatal(err)
	}
	spec, err := os.ReadFile(*specPath)
	if err != nil {
		fatal(err)
	}

	consts := map[int]string{} // version → constant name
	for _, m := range constRe.FindAllStringSubmatch(string(codec), -1) {
		v, err := strconv.Atoi(m[2])
		if err != nil {
			continue
		}
		consts[v] = m[1]
	}
	if len(consts) == 0 {
		fatal(fmt.Errorf("no version constants found in %s (pattern %q)", *codecPath, constRe))
	}

	documented := map[int]bool{}
	for _, m := range headingRe.FindAllStringSubmatch(string(spec), -1) {
		v, err := strconv.Atoi(m[1])
		if err != nil {
			continue
		}
		documented[v] = true
	}

	var problems []string
	for v, name := range consts {
		if !documented[v] {
			problems = append(problems,
				fmt.Sprintf("%s: %s = %d has no '### v%d' section in %s", *codecPath, name, v, v, *specPath))
		}
	}
	for v := range documented {
		if _, live := consts[v]; !live {
			problems = append(problems,
				fmt.Sprintf("%s: has a '### v%d' section, but %s declares no version %d", *specPath, v, *codecPath, v))
		}
	}
	if !strings.Contains(string(spec), `"DSIX"`) {
		problems = append(problems,
			fmt.Sprintf("%s: does not name the frame magic %q", *specPath, "DSIX"))
	}

	if len(problems) > 0 {
		sort.Strings(problems)
		for _, p := range problems {
			fmt.Fprintln(os.Stderr, "docscheck:", p)
		}
		fmt.Fprintf(os.Stderr, "docscheck: %d problem(s) — internal/index/codec.go and docs/FORMAT.md have drifted apart\n", len(problems))
		os.Exit(1)
	}
	versions := make([]string, 0, len(consts))
	for v, name := range consts {
		versions = append(versions, fmt.Sprintf("%s=%d", name, v))
	}
	sort.Strings(versions)
	fmt.Printf("docscheck: ok — %s documented in %s\n", strings.Join(versions, " "), *specPath)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "docscheck:", err)
	os.Exit(1)
}
