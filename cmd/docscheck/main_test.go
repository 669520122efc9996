package main

import (
	"fmt"
	"io/fs"
	"strings"
	"testing"
	"testing/fstest"
)

// TestCheck drives the gate over small codec/spec pairs: each way the two
// can drift apart yields exactly one finding that names it.
func TestCheck(t *testing.T) {
	const codec = "const (\n\tVersion = 11\n\tKindSegment = 1\n\tKindManifest = 2\n)\n"
	retired := "## Retired versions\n\n| version | what |\n|---|---|\n"
	for v := 1; v <= 10; v++ {
		retired += fmt.Sprintf("| %d | old |\n", v)
	}
	spec := "magic \"DSIX\"\n## Live versions\n### v11 — both kinds\n**Kind 1 — shard segment.**\n" +
		"**Kind 2 — shard manifest.**\n" + retired + "\n## Corruption\n| 12 | a later table |\n"
	for _, tc := range []struct {
		name, codec, spec string
		want              string // substring of the one finding; "" for none
	}{
		{"agree: one version constant pairs with one section", codec, spec, ""},
		{"kind alone form", strings.Replace(codec, "\tKindManifest = 2\n)\n", ")\n\nconst KindManifest = 2\n", 1), spec, ""},
		{"spec describes a kind the codec dropped", codec, spec + "**Kind 0 — full index.**\n", "'**Kind 0' heading"},
		{"codec kind missing from the spec", codec + "const kindFull = 0\n", spec, "kindFull = 0 has no '**Kind 0'"},
		{"spec describes a version the codec dropped", codec, spec + "### v8 — old\n", "'### v8' heading"},
		{"codec version missing from the spec", codec + "const (\n\tNextVersion = 12\n)\n", spec, "NextVersion = 12 has no '### v12'"},
		{"retired version without a row", codec, strings.Replace(spec, "| 10 | old |\n", "", 1), "version 10, below the live 11, has no row"},
		{"a row outside the retired table does not count", codec, strings.Replace(spec, "| 7 | old |\n", "", 1) + "| 7 | elsewhere |\n", "version 7, below the live 11"},
		{"magic not named", codec, strings.Replace(spec, `"DSIX"`, "DSIX", 1), "frame magic"},
	} {
		wantOne(t, tc.name, check("codec.go", "FORMAT.md", tc.codec, tc.spec), tc.want)
	}
	// The directories a document names: a stale one is a finding, an HTTP
	// route under /internal/ is not a path.
	root := fstest.MapFS{"cmd/indexgen/main.go": {}, "internal/index/index.go": {}, "examples/quickstart/main.go": {}}
	for _, tc := range []struct{ name, doc, want string }{
		{"named directories exist", "Run `go run ./examples/quickstart`;\ncmd/indexgen builds (internal/index.Index).\n", ""},
		{"stale path", "`cmd/indexgen` and `cmd/gone` build indexes.\n", "README.md: names cmd/gone"},
		{"route", "A broker asks `/internal/df`, then http://w:1/internal/search.\n", ""},
	} {
		wantOne(t, tc.name, checkPaths(map[string]string{"README.md": tc.doc}, root), tc.want)
	}
	// The internal identifiers a document names: one its package no longer
	// declares is a finding; a test counts, and what is not a backticked
	// selector into an internal package is not read.
	src := fstest.MapFS{
		"internal/index/index.go":      {Data: []byte("package index\n\ntype Index struct{}\n\nfunc (Index) Lookup() {}\n\nfunc Checksum() {}\n\nfunc (Index) Checksum() {}\n\nconst (\n\tVersion, KindSegment = 11, 1\n)\n")},
		"internal/index/index_test.go": {Data: []byte("package index\n\nfunc TestCodec() {}\n")},
	}
	for _, tc := range []struct{ name, doc, want string }{
		{"declared", "`index.Index`, `*index.Index`, `index.Checksum(data)`, `index.KindSegment` and `index.TestCodec`.\n", ""},
		{"gone", "`index.ErrGone` is refused.\n", "FORMAT.md: names index.ErrGone, which internal/index does not declare"},
		{"method is not top-level", "`index.Lookup` is a method.\n", "names index.Lookup"},
		{"not a selector into internal/", "index.ErrGone in prose; `desksearch.OpenDir`, `walk.list_ms`, `internal/index/index.go`, `a.index.ErrGone`.\n", ""},
	} {
		got, err := checkIdents(map[string]string{"FORMAT.md": tc.doc}, src)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		wantOne(t, tc.name, got, tc.want)
	}
}

// TestCheckPackageMap: a package directory the map leaves out, and a map
// row for a package that does not exist, each yield exactly one finding.
func TestCheckPackageMap(t *testing.T) {
	const arch = "# Architecture\n\nSee `internal/gone` in prose.\n\n## Package map\n\n" +
		"| Package | Role | Key types |\n|---|---|---|\n" +
		"| `internal/index` | Inverted index | `Index`, `/internal/{df,search}` |\n" +
		"| `internal/fnv`, `internal/walk` | Hashing, traversal | `Hash32` |\n" +
		"| `cmd/docscheck` | This gate | `internal/shard` in a later column |\n" +
		"\n## Partitions\n\n| `internal/later` | a table in another section |\n"
	// internal lists the entries of a tree holding the named package
	// directories and a loose file, which is no package.
	internal := func(dirs ...string) []fs.DirEntry {
		tree := fstest.MapFS{"README.md": {}}
		for _, d := range dirs {
			tree[d+"/doc.go"] = &fstest.MapFile{}
		}
		entries, err := fs.ReadDir(tree, ".")
		if err != nil {
			t.Fatal(err)
		}
		return entries
	}
	for _, tc := range []struct {
		name string
		dirs []string
		want string // substring of the one finding; "" for none
	}{
		{"agree", []string{"fnv", "index", "walk"}, ""},
		{"package missing from the map", []string{"container", "fnv", "index", "walk"}, "internal/container: not named in the package map"},
		{"map names a deleted package", []string{"fnv", "index"}, "names internal/walk, which does not exist"},
	} {
		wantOne(t, tc.name, checkPackageMap("ARCHITECTURE.md", arch, internal(tc.dirs...)), tc.want)
	}
	// Without the section every package is unmapped.
	noMap := strings.Replace(arch, "## Package map", "## Packages", 1)
	if got := checkPackageMap("ARCHITECTURE.md", noMap, internal("fnv", "index", "walk")); len(got) != 3 {
		t.Errorf("no package map: findings %q, want one per package", got)
	}
}

// TestCheckImporters: a package under internal/ needs a non-test importer
// outside itself; one under bench/ counts, a _test.go file does not.
func TestCheckImporters(t *testing.T) {
	// file is a Go source file importing the named internal packages.
	file := func(imports ...string) *fstest.MapFile {
		src := "package p\n"
		for _, p := range imports {
			src += "import _ \"desksearch/internal/" + p + "\"\n"
		}
		return &fstest.MapFile{Data: []byte(src)}
	}
	for _, tc := range []struct {
		name string
		tree fstest.MapFS
		want string // substring of the one finding; "" for none
	}{
		{"imported", fstest.MapFS{"bench/run.go": file("lexer")}, ""},
		{"imported only by tests", fstest.MapFS{"cmd/tool/main.go": file(), "cmd/tool/main_test.go": file("lexer")}, "internal/lexer: imported by no"},
		{"not imported", fstest.MapFS{"cmd/tool/main.go": file()}, "internal/lexer: imported by no"},
	} {
		tc.tree["internal/lexer/lexer.go"] = file()
		tc.tree["internal/lexer/sub/sub.go"] = file("lexer") // its own subdirectory is not an importer
		got, err := checkImporters(tc.tree)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		wantOne(t, tc.name, got, tc.want)
	}
}

// TestCheckSignatures: an exported signature of the root package may name
// a root alias of an internal type but not the internal type itself, under
// its package name or an import alias; unexported functions, methods of
// unexported types and tests are not the API.
func TestCheckSignatures(t *testing.T) {
	const imports = "package desksearch\n\nimport (\n\t\"io/fs\"\n\n\tix \"desksearch/internal/index\"\n\t\"desksearch/internal/vfs\"\n)\n\n"
	for _, tc := range []struct{ name, src, want string }{
		{"public types and aliases", "type Hit = ix.Hit\n\nfunc IndexFS(fsys fs.FS) (Hit, error)\n\n" +
			"func walk(fsys vfs.FS) {}\n\nfunc (p *part) Index() *ix.Index\n", ""},
		{"internal parameter", "func IndexFS(fsys vfs.FS, root string) error\n", "desksearch.go:10:19: exported IndexFS names vfs.FS from desksearch/internal/vfs"},
		{"aliased internal result of a method", "func (c *Catalog) Parts() (n int, parts []*ix.Index)\n", "exported Parts names ix.Index from desksearch/internal/index"},
	} {
		tree := fstest.MapFS{
			"desksearch.go":      {Data: []byte(imports + tc.src)},
			"desksearch_test.go": {Data: []byte(imports + "func Helper(fsys vfs.FS) {}\n")},
		}
		got, err := checkSignatures(tree)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		wantOne(t, tc.name, got, tc.want)
	}
}

// TestCheckMembers: a backticked Type.Member citing an exported root type
// must name one of its fields or methods — its own, one promoted from an
// embedded type, or the aliased internal type's — and a member declared
// only in a test file does not count.
func TestCheckMembers(t *testing.T) {
	tree := fstest.MapFS{
		"desksearch.go": {Data: []byte("package desksearch\n\nimport (\n\t\"time\"\n\n\ts \"desksearch/internal/search\"\n)\n\n" +
			"type Options struct {\n\tShards int\n\t*s.Base\n}\n\ntype Catalog struct{ lazy bool }\n\n" +
			"func (c *Catalog) Query() {}\n\ntype Hit = s.Hit\n\ntype Timer = time.Timer\n\ntype view struct{ Gone int }\n")},
		"desksearch_test.go":          {Data: []byte("package desksearch\n\nfunc (c *Catalog) Probe() {}\n")},
		"internal/search/search.go":   {Data: []byte("package search\n\ntype Base struct{ Limit int }\n\ntype Hit struct{ Path string }\n\nfunc (h Hit) Score() float64 { return 0 }\n")},
		"internal/extract/extract.go": {Data: []byte("package extract\n\ntype Options struct{ Positions bool }\n")},
	}
	for _, tc := range []struct{ name, doc, want string }{
		{"declared", "`Options.Shards`, `Catalog.Query`, `Catalog.lazy`, `Options.Limit`, `Options.Base`, `Hit.Path`, `Hit.Score()` and `Timer.Reset`.\n", ""},
		{"stale field", "Build with `Options.Colors`.\n", "README.md: names Options.Colors, but desksearch.Options has no field or method Colors"},
		{"stale alias member", "`Hit.File` is the ID.\n", "names Hit.File, but desksearch.Hit has no field or method File"},
		{"test-only method", "`Catalog.Probe` looks.\n", "names Catalog.Probe"},
		{"not a root type member", "Options.Colors in prose; `extract.Options.Colors`, `view.Gone`, `README.md`, `Query.Gone`.\n", ""},
	} {
		got, err := checkMembers(map[string]string{"README.md": tc.doc}, tree)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		wantOne(t, tc.name, got, tc.want)
	}
}

// wantOne fails unless got is empty when want is "", or holds exactly one
// finding containing want.
func wantOne(t *testing.T, name string, got []string, want string) {
	t.Helper()
	switch {
	case want == "" && len(got) != 0:
		t.Errorf("%s: findings %q, want none", name, got)
	case want != "" && (len(got) != 1 || !strings.Contains(got[0], want)):
		t.Errorf("%s: findings %q, want one containing %q", name, got, want)
	}
}

// TestCheckFlags: a backticked flag must be defined by a flag.* call in a
// main package under cmd/ or in bench/main.go; a flag defined only in a
// test file or outside a main package does not count, and a span that is
// not one flag is not read.
func TestCheckFlags(t *testing.T) {
	tree := fstest.MapFS{
		"cmd/tool/main.go": {Data: []byte("package main\n\nimport (\n\t\"flag\"\n\t\"time\"\n)\n\nvar every time.Duration\n\nfunc main() {\n" +
			"\tflag.String(\"root\", \"\", \"usage\")\n\tflag.DurationVar(&every, \"watch\", 0, \"usage\")\n\tflag.Parse()\n}\n")},
		"cmd/tool/main_test.go": {Data: []byte("package main\n\nimport \"flag\"\n\nvar _ = flag.Bool(\"verbose\", false, \"\")\n")},
		"cmd/tool/lib.go":       {Data: []byte("package lib\n\nimport \"flag\"\n\nvar _ = flag.Bool(\"quiet\", false, \"\")\n")},
		"bench/main.go":         {Data: []byte("package main\n\nimport \"flag\"\n\nvar _ = flag.Bool(\"smoke\", false, \"\")\n")},
	}
	for _, tc := range []struct{ name, doc, want string }{
		{"defined", "`-root`, `-watch 30s` and `-smoke`.\n", ""},
		{"undefined", "Paint it with `-colors`.\n", "README.md: cites -colors, which no command defines"},
		{"defined only in a test", "`-verbose` talks.\n", "cites -verbose"},
		{"defined outside a main package", "`-quiet` hushes.\n", "cites -quiet"},
		{"not a flag", "`-`, `-a -b`, `-shuffle=on`, `go test -quiet`, `quarterly -draft` and -quiet in prose.\n", ""},
	} {
		got, err := checkFlags(map[string]string{"README.md": tc.doc}, tree)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		wantOne(t, tc.name, got, tc.want)
	}
}
