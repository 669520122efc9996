// Command docscheck is the CI doc-drift gate: it verifies that the DSIX
// version and frame-kind constants in internal/index/codec.go agree with
// docs/FORMAT.md, and that docs/ARCHITECTURE.md's package map names exactly
// the packages under internal/, so neither document silently rots.
//
// Checks:
//
//  1. every version constant in the codec (FrameVersion,
//     LazySegmentVersion) has a matching "### vN — ..." section in the
//     spec;
//  2. the spec has no "### vN" section for a version the codec lacks
//     (retired versions get a table row, not a section);
//  3. every frame-kind constant in the codec (KindManifest) has a matching
//     "**Kind N — ..." heading in the spec, and the spec has no such
//     heading for a kind the codec lacks (a retired kind gets a table row);
//  4. the spec names the frame magic ("DSIX");
//  5. the first column of the "## Package map" table names every directory
//     under internal/, and no internal/ package that does not exist.
//
// Usage (normally via `make docs-check`, from the repository root):
//
//	docscheck [-codec internal/index/codec.go] [-spec docs/FORMAT.md]
//
// Exits non-zero with one line per finding when the docs drift from the code.
package main

import (
	"flag"
	"fmt"
	"io/fs"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// pairing is one family of numbered things the codec declares as constants
// and the spec documents under headings.
type pairing struct {
	what      string         // "version", "frame kind"
	constRe   *regexp.Regexp // codec constant: name, number
	headingRe *regexp.Regexp // spec heading: number
	heading   string         // heading shape, for messages
}

var pairings = []pairing{
	{
		what: "version",
		// "FrameVersion = 9", inside the const block.
		constRe: regexp.MustCompile(`(?m)^\t([A-Za-z]*[Vv]ersion)\s*=\s*(\d+)\b`),
		// "### v9 — the frame"
		headingRe: regexp.MustCompile(`(?m)^### v(\d+)\b`),
		heading:   "### v%d",
	},
	{
		what: "frame kind",
		// "const KindManifest = 2", alone or inside a const block.
		constRe: regexp.MustCompile(`(?m)^(?:const |\t)([Kk]ind[A-Za-z]*)\s*=\s*(\d+)\b`),
		// "**Kind 2 — shard manifest.**"
		headingRe: regexp.MustCompile(`(?m)^\*\*Kind (\d+)\b`),
		heading:   "**Kind %d",
	},
}

// check returns one finding per disagreement between the codec source and
// the spec, sorted; none when they agree.
func check(codecPath, specPath, codec, spec string) []string {
	var problems []string
	for _, p := range pairings {
		consts := map[int]string{} // number → constant name
		for _, m := range p.constRe.FindAllStringSubmatch(codec, -1) {
			if n, err := strconv.Atoi(m[2]); err == nil {
				consts[n] = m[1]
			}
		}
		if len(consts) == 0 {
			problems = append(problems,
				fmt.Sprintf("%s: no %s constants found (pattern %q)", codecPath, p.what, p.constRe))
		}
		documented := map[int]bool{}
		for _, m := range p.headingRe.FindAllStringSubmatch(spec, -1) {
			if n, err := strconv.Atoi(m[1]); err == nil {
				documented[n] = true
			}
		}
		for n, name := range consts {
			if !documented[n] {
				problems = append(problems,
					fmt.Sprintf("%s: %s = %d has no '"+p.heading+"' heading in %s", codecPath, name, n, n, specPath))
			}
		}
		for n := range documented {
			if _, live := consts[n]; !live {
				problems = append(problems,
					fmt.Sprintf("%s: has a '"+p.heading+"' heading, but %s declares no %s %d", specPath, n, codecPath, p.what, n))
			}
		}
	}
	if !strings.Contains(spec, `"DSIX"`) {
		problems = append(problems,
			fmt.Sprintf("%s: does not name the frame magic %q", specPath, "DSIX"))
	}
	sort.Strings(problems)
	return problems
}

// mappedRe matches a package the package map names: `internal/NAME`.
var mappedRe = regexp.MustCompile("`internal/([A-Za-z0-9_]+)`")

// checkPackageMap returns, sorted, one finding per package that is either a
// directory among internal (the entries of internal/) or named in the first
// column of arch's "## Package map" table, but not both.
func checkPackageMap(archPath, arch string, internal []fs.DirEntry) []string {
	_, section, _ := strings.Cut(arch, "\n## Package map\n")
	section, _, _ = strings.Cut(section, "\n## ")
	seen := map[string]int{} // 1: a directory, 2: mapped, 3: both
	for _, e := range internal {
		if e.IsDir() {
			seen[e.Name()] |= 1
		}
	}
	for _, line := range strings.Split(section, "\n") {
		if cells := strings.Split(line, "|"); len(cells) > 2 {
			for _, m := range mappedRe.FindAllStringSubmatch(cells[1], -1) {
				seen[m[1]] |= 2
			}
		}
	}
	var problems []string
	for name, s := range seen {
		switch s {
		case 1:
			problems = append(problems, fmt.Sprintf("internal/%s: not named in the package map of %s", name, archPath))
		case 2:
			problems = append(problems, fmt.Sprintf("%s: the package map names internal/%s, which does not exist", archPath, name))
		}
	}
	sort.Strings(problems)
	return problems
}

func main() {
	codecPath := flag.String("codec", "internal/index/codec.go", "codec source file declaring the version and kind constants")
	specPath := flag.String("spec", "docs/FORMAT.md", "format specification to check against")
	flag.Parse()
	const archPath = "docs/ARCHITECTURE.md"

	codec, err := os.ReadFile(*codecPath)
	if err != nil {
		fatal(err)
	}
	spec, err := os.ReadFile(*specPath)
	if err != nil {
		fatal(err)
	}
	arch, err := os.ReadFile(archPath)
	if err != nil {
		fatal(err)
	}
	internal, err := os.ReadDir("internal")
	if err != nil {
		fatal(err)
	}
	problems := append(check(*codecPath, *specPath, string(codec), string(spec)), checkPackageMap(archPath, string(arch), internal)...)
	if len(problems) > 0 {
		for _, p := range problems {
			fmt.Fprintln(os.Stderr, "docscheck:", p)
		}
		fmt.Fprintf(os.Stderr, "docscheck: %d problem(s) — the docs have drifted from the code\n", len(problems))
		os.Exit(1)
	}
	fmt.Printf("docscheck: ok — %s and %s agree on every version and frame kind; %s maps every package under internal/\n", *codecPath, *specPath, archPath)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "docscheck:", err)
	os.Exit(1)
}
