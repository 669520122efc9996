package main

import (
	"io/fs"
	"strings"
	"testing"
	"testing/fstest"
)

// TestCheck drives the gate over small codec/spec pairs: each way the two
// can drift apart yields exactly one finding that names it.
func TestCheck(t *testing.T) {
	const codec = "const (\n\tFrameVersion = 9\n\tLazySegmentVersion = 10\n)\n\nconst KindManifest = 2\n"
	const spec = "magic \"DSIX\"\n### v9 — the frame\n**Kind 2 — shard manifest.**\n### v10 — the lazy shard segment\n"
	for _, tc := range []struct {
		name, codec, spec string
		want              string // substring of the one finding; "" for none
	}{
		{"agree", codec, spec, ""},
		{"kind block form", strings.Replace(codec, "const KindManifest = 2", "const (\n\tkindOther = 2\n)", 1), spec, ""},
		{"spec describes a kind the codec dropped", codec, spec + "**Kind 0 — full index.**\n", "'**Kind 0' heading"},
		{"codec kind missing from the spec", codec + "const kindFull = 0\n", spec, "kindFull = 0 has no '**Kind 0'"},
		{"spec describes a version the codec dropped", codec, spec + "### v8 — old\n", "'### v8' heading"},
		{"codec version missing from the spec", codec + "const (\n\tNextVersion = 11\n)\n", spec, "NextVersion = 11 has no '### v11'"},
		{"magic not named", codec, strings.Replace(spec, `"DSIX"`, "DSIX", 1), "frame magic"},
	} {
		wantOne(t, tc.name, check("codec.go", "FORMAT.md", tc.codec, tc.spec), tc.want)
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
