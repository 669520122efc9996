// Command docscheck is the CI doc-drift gate: it verifies that the DSIX
// version and kind constants in internal/index/codec.go agree with
// docs/FORMAT.md, that docs/ARCHITECTURE.md's package map names exactly
// the packages under internal/, that every directory and internal
// identifier the top-level docs name exists, as does every field or method
// they cite of a root type and every command-line flag, that every package
// under internal/ has an importer, and that the public API names no
// internal type, so no document silently rots, no package outlives its
// last reader and no exported signature is closed to callers outside the
// module.
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
//     package stays in the tree without a reader;
//  9. every backticked pkg.Name in README.md, doc.go, docs/ARCHITECTURE.md
//     or docs/FORMAT.md whose pkg is a directory under internal/ names a
//     top-level identifier declared in that package (_test.go files count,
//     so the docs may cite tests). Only exported-looking names are read:
//     `walk.list_ms` is a metric, not a selector;
//  10. no exported function, or exported method of an exported type, in
//     the root package's non-test files takes or returns a type named
//     through a desksearch/internal/... import, which a caller outside the
//     module could not name (a root alias such as Hit is a root name);
//  11. every backticked Type.Member in the documents check 9 reads, whose
//     Type is an exported type declared in the root package's non-test
//     files, names a field or method of that type: its own, one promoted
//     from an embedded type, or, for an alias of a type under internal/
//     (Hit = search.Hit), one of the aliased type's. A citation of a
//     same-named internal type is qualified (`extract.Options.Positions`),
//     which this check does not read;
//  12. every backticked -flag in README.md, doc.go or docs/ARCHITECTURE.md
//     names a flag that a flag.* call (the Var forms included) defines in a
//     main package under cmd/ or in bench/main.go. A span is read as a
//     flag when it is one flag alone or followed by one value (`-shards`,
//     `-watch 30s`); query text (`-a -b`), a lone `-` and the -name=value
//     form, which the docs use only for go test's flags, are not.
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
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"maps"
	"os"
	"path"
	"regexp"
	"slices"
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

// spanRe matches a backticked span on one line; selectorRe a pkg.Name in
// it that is not the tail of a path or a longer selector
// (internal/index/index.go, a.b.C).
var (
	spanRe     = regexp.MustCompile("`([^`\n]+)`")
	selectorRe = regexp.MustCompile(`(?:^|[^A-Za-z0-9_./])([a-z][a-z0-9_]*)\.([A-Z][A-Za-z0-9_]*)`)
)

// checkIdents returns, sorted, one finding per backticked pkg.Name in docs
// (document name → text) whose pkg is a package under root's internal/
// that declares no top-level Name in any of its .go files.
func checkIdents(docs map[string]string, root fs.FS) ([]string, error) {
	packages, declared := map[string]bool{}, map[string]bool{} // "index"; "index.Index"
	err := parseFiles(root, "internal/*/*.go", true, func(p string, _ *token.FileSet, f *ast.File) {
		pkg := path.Base(path.Dir(p))
		packages[pkg] = true
		for _, decl := range f.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				if decl.Recv == nil {
					declared[pkg+"."+decl.Name.Name] = true
				}
			case *ast.GenDecl:
				for _, spec := range decl.Specs {
					switch spec := spec.(type) {
					case *ast.TypeSpec:
						declared[pkg+"."+spec.Name.Name] = true
					case *ast.ValueSpec:
						for _, n := range spec.Names {
							declared[pkg+"."+n.Name] = true
						}
					}
				}
			}
		}
	})
	if err != nil {
		return nil, err
	}
	found := map[string]bool{}
	for doc, text := range docs {
		for _, span := range spanRe.FindAllStringSubmatch(text, -1) {
			for _, m := range selectorRe.FindAllStringSubmatch(span[1], -1) {
				if name := m[1] + "." + m[2]; packages[m[1]] && !declared[name] {
					found[fmt.Sprintf("%s: names %s, which internal/%s does not declare", doc, name, m[1])] = true
				}
			}
		}
	}
	return slices.Sorted(maps.Keys(found)), nil
}

// memberRe matches a Type.Member in a backticked span that is not the tail
// of a path or a longer selector (search.Request.Validate).
var memberRe = regexp.MustCompile(`(?:^|[^A-Za-z0-9_./])([A-Z][A-Za-z0-9_]*)\.([A-Za-z_][A-Za-z0-9_]*)`)

// checkMembers returns, sorted, one finding per backticked Type.Member in
// docs (document name → text) whose Type is an exported type declared in
// root's top-level non-test .go files and has no field or method Member.
// A type has its own fields and methods, and the members of the types it
// aliases or embeds, declared at the root or in a package under internal/.
func checkMembers(docs map[string]string, root fs.FS) ([]string, error) {
	exported := map[string]bool{} // the root's exported type names
	members := map[string]bool{}  // "pkg.Type.Member"; pkg "." is the root
	from := map[string][]string{} // "pkg.Type" → the types whose members it has too; "?" is outside the module
	collect := func(p string, _ *token.FileSet, f *ast.File) {
		pkg := path.Base(path.Dir(p))
		internal := internalImports(f)
		// ref keys the named type t refers to; "" for a type literal.
		ref := func(t ast.Expr) string {
			if star, ok := t.(*ast.StarExpr); ok {
				t = star.X
			}
			switch t := t.(type) {
			case *ast.Ident:
				return pkg + "." + t.Name
			case *ast.SelectorExpr:
				if x, ok := t.X.(*ast.Ident); ok && internal[x.Name] != "" {
					return path.Base(internal[x.Name]) + "." + t.Sel.Name
				}
				return "?"
			}
			return ""
		}
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv != nil {
				members[ref(fn.Recv.List[0].Type)+"."+fn.Name.Name] = true
			}
			gen, ok := decl.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gen.Specs {
				spec, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				key := pkg + "." + spec.Name.Name
				exported[spec.Name.Name] = exported[spec.Name.Name] || pkg == "." && spec.Name.IsExported()
				var fields []*ast.Field
				embeds := true // whether an unnamed field is an embedded one, its type's name a member
				switch t := spec.Type.(type) {
				case *ast.StructType:
					fields = t.Fields.List
				case *ast.InterfaceType:
					fields = t.Methods.List
				default: // an alias or defined type takes on its target's members
					fields, embeds = []*ast.Field{{Type: spec.Type}}, false
				}
				for _, field := range fields {
					for _, n := range field.Names {
						members[key+"."+n.Name] = true
					}
					if target := ref(field.Type); len(field.Names) == 0 && target != "" {
						from[key] = append(from[key], target)
						if i := strings.LastIndexByte(target, '.'); embeds && i >= 0 {
							members[key+target[i:]] = true
						}
					}
				}
			}
		}
	}
	for _, pattern := range []string{"*.go", "internal/*/*.go"} {
		if err := parseFiles(root, pattern, false, collect); err != nil {
			return nil, err
		}
	}
	var has func(key, member string, depth int) bool // depth bounds a cycle of embedded pointers
	has = func(key, member string, depth int) bool {
		return key == "?" || members[key+"."+member] || depth < 8 &&
			slices.ContainsFunc(from[key], func(f string) bool { return has(f, member, depth+1) })
	}
	found := map[string]bool{}
	for doc, text := range docs {
		for _, span := range spanRe.FindAllStringSubmatch(text, -1) {
			for _, m := range memberRe.FindAllStringSubmatch(span[1], -1) {
				if exported[m[1]] && !has(".."+m[1], m[2], 0) {
					found[fmt.Sprintf("%s: names %s.%s, but desksearch.%s has no field or method %s", doc, m[1], m[2], m[1], m[2])] = true
				}
			}
		}
	}
	return slices.Sorted(maps.Keys(found)), nil
}

// flagSpanRe matches a backticked span that cites one flag: -name alone
// or followed by one value that is not itself a flag.
var flagSpanRe = regexp.MustCompile(`^-([a-z][a-z0-9-]*)(?: [^\s-]\S*)?$`)

// flagFuncs are the flag package's functions that define a flag; the name
// is the first string literal among their arguments.
var flagFuncs = map[string]bool{
	"Bool": true, "BoolFunc": true, "BoolVar": true, "Duration": true, "DurationVar": true,
	"Float64": true, "Float64Var": true, "Func": true, "Int": true, "Int64": true, "Int64Var": true,
	"IntVar": true, "String": true, "StringVar": true, "TextVar": true, "Uint": true,
	"Uint64": true, "Uint64Var": true, "UintVar": true, "Var": true,
}

// checkFlags returns, sorted, one finding per backticked flag in docs
// (document name → text) that no flag.* call in root's main packages under
// cmd/, or in bench/main.go, defines.
func checkFlags(docs map[string]string, root fs.FS) ([]string, error) {
	defined := map[string]bool{}
	collect := func(_ string, _ *token.FileSet, f *ast.File) {
		if f.Name.Name != "main" {
			return
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if sel, ok := call.Fun.(*ast.SelectorExpr); ok && flagFuncs[sel.Sel.Name] {
				if x, ok := sel.X.(*ast.Ident); ok && x.Name == "flag" {
					for _, arg := range call.Args {
						if lit, ok := arg.(*ast.BasicLit); ok && lit.Kind == token.STRING {
							if name, err := strconv.Unquote(lit.Value); err == nil {
								defined[name] = true
							}
							break
						}
					}
				}
			}
			return true
		})
	}
	for _, pattern := range []string{"cmd/*/*.go", "bench/main.go"} {
		if err := parseFiles(root, pattern, false, collect); err != nil {
			return nil, err
		}
	}
	found := map[string]bool{}
	for doc, text := range docs {
		for _, span := range spanRe.FindAllStringSubmatch(text, -1) {
			if m := flagSpanRe.FindStringSubmatch(span[1]); m != nil && !defined[m[1]] {
				found[fmt.Sprintf("%s: cites -%s, which no command defines", doc, m[1])] = true
			}
		}
	}
	return slices.Sorted(maps.Keys(found)), nil
}

// parseFiles parses each .go file of root that matches pattern — _test.go
// files only with tests — and hands it to fn.
func parseFiles(root fs.FS, pattern string, tests bool, fn func(p string, fset *token.FileSet, f *ast.File)) error {
	srcs, err := fs.Glob(root, pattern)
	if err != nil {
		return err
	}
	for _, p := range srcs {
		if !tests && strings.HasSuffix(p, "_test.go") {
			continue
		}
		src, err := fs.ReadFile(root, p)
		if err != nil {
			return err
		}
		fset := token.NewFileSet()
		f, err := parser.ParseFile(fset, p, src, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		fn(p, fset, f)
	}
	return nil
}

// checkSignatures returns, sorted, one finding per parameter or result of
// an exported function or method in root's top-level non-test .go files
// whose type names a package imported from desksearch/internal/.
func checkSignatures(root fs.FS) ([]string, error) {
	var problems []string
	err := parseFiles(root, "*.go", false, func(_ string, fset *token.FileSet, f *ast.File) {
		internal := internalImports(f)
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || !fn.Name.IsExported() || fn.Recv != nil && !exportedType(fn.Recv.List[0].Type) {
				continue
			}
			ast.Inspect(fn.Type, func(n ast.Node) bool {
				if sel, ok := n.(*ast.SelectorExpr); ok {
					if x, ok := sel.X.(*ast.Ident); ok && internal[x.Name] != "" {
						problems = append(problems, fmt.Sprintf("%s: exported %s names %s.%s from %s, which a caller outside the module cannot name",
							fset.Position(sel.Pos()), fn.Name.Name, x.Name, sel.Sel.Name, internal[x.Name]))
					}
				}
				return true
			})
		}
	})
	sort.Strings(problems)
	return problems, err
}

// internalImports maps the name f uses for each package it imports from
// under internal/ to that package's import path.
func internalImports(f *ast.File) map[string]string {
	internal := map[string]string{}
	for _, imp := range f.Imports {
		if ip := strings.Trim(imp.Path.Value, `"`); strings.HasPrefix(ip, internalPrefix) {
			name := path.Base(ip)
			if imp.Name != nil {
				name = imp.Name.Name
			}
			internal[name] = ip
		}
	}
	return internal
}

// exportedType reports whether a receiver type, T or *T, is exported.
func exportedType(t ast.Expr) bool {
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	id, ok := t.(*ast.Ident)
	return !ok || id.IsExported()
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
	identDocs := maps.Clone(docs)
	identDocs[*specPath] = string(spec)
	undeclared, err := checkIdents(identDocs, os.DirFS("."))
	if err != nil {
		fatal(err)
	}
	problems = append(problems, undeclared...)
	unknown, err := checkMembers(identDocs, os.DirFS("."))
	if err != nil {
		fatal(err)
	}
	problems = append(problems, unknown...)
	undefined, err := checkFlags(docs, os.DirFS("."))
	if err != nil {
		fatal(err)
	}
	problems = append(problems, undefined...)
	closed, err := checkSignatures(os.DirFS("."))
	if err != nil {
		fatal(err)
	}
	problems = append(problems, closed...)
	if len(problems) > 0 {
		for _, p := range problems {
			fmt.Fprintln(os.Stderr, "docscheck:", p)
		}
		fmt.Fprintf(os.Stderr, "docscheck: %d problem(s) — the docs have drifted from the code\n", len(problems))
		os.Exit(1)
	}
	fmt.Printf("docscheck: ok — %s and %s agree on every version and frame kind; %s maps every package under internal/; every directory, internal identifier, root type member and flag the docs name exists; every internal package has an importer; no exported signature names an internal type\n", *codecPath, *specPath, archPath)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "docscheck:", err)
	os.Exit(1)
}
