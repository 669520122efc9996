// Command docscheck is the CI doc-drift gate: it verifies that the DSIX
// version and kind constants in internal/index/codec.go agree with
// docs/FORMAT.md, that docs/ARCHITECTURE.md's package map names exactly
// the packages under internal/, that every directory the top-level docs
// name exists, and that every package under internal/ has an importer, so
// no document silently rots and no package outlives its last reader.
//
// Checks:
//
//  1. every version constant in the codec (Version) has a matching
//     "### vN — ..." section in the spec;
//  2. the spec has no "### vN" section for a version the codec lacks
//     (retired versions get a table row, not a section);
//  3. every version below the newest live one has a row in the spec's
//     "## Retired versions" table;
//  4. every kind constant in the codec (KindSegment, KindManifest) has a
//     matching "**Kind N — ..." heading in the spec, and the spec has no
//     such heading for a kind the codec lacks;
//  5. the spec names the frame magic ("DSIX");
//  6. the first column of the "## Package map" table names every directory
//     under internal/, and no internal/ package that does not exist;
//  7. every cmd/NAME, internal/NAME or examples/NAME that README.md, doc.go
//     or docs/ARCHITECTURE.md names is a directory (an HTTP route such as
//     /internal/df is not a path);
//  8. every directory under internal/ is imported by a non-test .go file
//     outside it (files under bench/ count; _test.go files do not), so no
//     package stays in the tree without a reader.
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
	"go/parser"
	"go/token"
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
		// "Version = 11", inside the const block.
		constRe: regexp.MustCompile(`(?m)^\t([A-Za-z]*[Vv]ersion)\s*=\s*(\d+)\b`),
		// "### v11 — the manifest and the shard segment"
		headingRe: regexp.MustCompile(`(?m)^### v(\d+)\b`),
		heading:   "### v%d",
	},
	{
		what: "frame kind",
		// "KindManifest = 2", inside a const block or alone.
		constRe: regexp.MustCompile(`(?m)^(?:const |\t)([Kk]ind[A-Za-z]*)\s*=\s*(\d+)\b`),
		// "**Kind 2 — shard manifest.**"
		headingRe: regexp.MustCompile(`(?m)^\*\*Kind (\d+)\b`),
		heading:   "**Kind %d",
	},
}

// retiredRowRe matches the leading number of a table row: "| 9 | ...".
var retiredRowRe = regexp.MustCompile(`(?m)^\|\s*(\d+)\b`)

// check returns one finding per disagreement between the codec source and
// the spec, sorted; none when they agree.
func check(codecPath, specPath, codec, spec string) []string {
	var problems []string
	var versions map[int]string // pairings[0]'s constants
	for _, p := range pairings {
		consts := map[int]string{} // number → constant name
		for _, m := range p.constRe.FindAllStringSubmatch(codec, -1) {
			if n, err := strconv.Atoi(m[2]); err == nil {
				consts[n] = m[1]
			}
		}
		if versions == nil {
			versions = consts
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
	_, retired, _ := strings.Cut(spec, "\n## Retired versions\n")
	retired, _, _ = strings.Cut(retired, "\n## ")
	rows := map[int]bool{}
	for _, m := range retiredRowRe.FindAllStringSubmatch(retired, -1) {
		if n, err := strconv.Atoi(m[1]); err == nil {
			rows[n] = true
		}
	}
	newest := 0
	for n := range versions {
		newest = max(newest, n)
	}
	for n := 1; n < newest; n++ {
		if _, live := versions[n]; !live && !rows[n] {
			problems = append(problems,
				fmt.Sprintf("%s: version %d, below the live %d, has no row in the 'Retired versions' table", specPath, n, newest))
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

// pathRe matches a directory a document names: cmd/NAME, internal/NAME or
// examples/NAME at the start of a word or after "./". After any other slash
// it is part of a longer path or an HTTP route (/internal/df), not a
// directory of this repository.
var pathRe = regexp.MustCompile(`(?m)(?:^|[^A-Za-z0-9_./-]|\./)((?:cmd|internal|examples)/[A-Za-z0-9_]+)`)

// checkPaths returns, sorted, one finding per directory that one of docs
// (document name → text) names and that is not a directory in root.
func checkPaths(docs map[string]string, root fs.FS) []string {
	var problems []string
	for name, text := range docs {
		seen := map[string]bool{}
		for _, m := range pathRe.FindAllStringSubmatch(text, -1) {
			dir := m[1]
			if seen[dir] {
				continue
			}
			seen[dir] = true
			if info, err := fs.Stat(root, dir); err != nil || !info.IsDir() {
				problems = append(problems, fmt.Sprintf("%s: names %s, which is not a directory", name, dir))
			}
		}
	}
	sort.Strings(problems)
	return problems
}

// internalPrefix is the import-path prefix of the packages under internal/
// (go.mod's module path is desksearch).
const internalPrefix = "desksearch/internal/"

// checkImporters returns, sorted, one finding per directory under root's
// internal/ that no non-test .go file outside it imports. Every .go file
// under root counts, the nested bench/ module's included; directories the
// go tool ignores (testdata, names starting with "." or "_") are skipped.
func checkImporters(root fs.FS) ([]string, error) {
	entries, err := fs.ReadDir(root, "internal")
	if err != nil {
		return nil, err
	}
	imported := map[string]bool{}
	for _, e := range entries {
		if e.IsDir() {
			imported[e.Name()] = false
		}
	}
	err = fs.WalkDir(root, ".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if name := d.Name(); d.IsDir() && p != "." && (name == "testdata" || name[0] == '.' || name[0] == '_') {
			return fs.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		src, err := fs.ReadFile(root, p)
		if err != nil {
			return err
		}
		f, err := parser.ParseFile(token.NewFileSet(), p, src, parser.ImportsOnly)
		if err != nil {
			return err
		}
		for _, imp := range f.Imports {
			pkg, ok := strings.CutPrefix(strings.Trim(imp.Path.Value, `"`), internalPrefix)
			if pkg, _, _ = strings.Cut(pkg, "/"); ok && !strings.HasPrefix(p, "internal/"+pkg+"/") {
				imported[pkg] = true
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	var problems []string
	for pkg, ok := range imported {
		if !ok {
			problems = append(problems, fmt.Sprintf("internal/%s: imported by no non-test .go file outside it; delete it", pkg))
		}
	}
	sort.Strings(problems)
	return problems, nil
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
	docs := map[string]string{archPath: string(arch)}
	for _, name := range []string{"README.md", "doc.go"} {
		text, err := os.ReadFile(name)
		if err != nil {
			fatal(err)
		}
		docs[name] = string(text)
	}
	problems := append(check(*codecPath, *specPath, string(codec), string(spec)), checkPackageMap(archPath, string(arch), internal)...)
	problems = append(problems, checkPaths(docs, os.DirFS("."))...)
	unimported, err := checkImporters(os.DirFS("."))
	if err != nil {
		fatal(err)
	}
	problems = append(problems, unimported...)
	if len(problems) > 0 {
		for _, p := range problems {
			fmt.Fprintln(os.Stderr, "docscheck:", p)
		}
		fmt.Fprintf(os.Stderr, "docscheck: %d problem(s) — the docs have drifted from the code\n", len(problems))
		os.Exit(1)
	}
	fmt.Printf("docscheck: ok — %s and %s agree on every version and frame kind; %s maps every package under internal/; every directory the docs name exists; every internal package has an importer\n", *codecPath, *specPath, archPath)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "docscheck:", err)
	os.Exit(1)
}
