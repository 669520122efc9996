package desksearch

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"desksearch/internal/vfs"
)

func demoFS(t *testing.T) *vfs.MemFS {
	t.Helper()
	fs := vfs.NewMemFS()
	files := map[string]string{
		"notes/todo.txt":     "buy milk, write report",
		"notes/done.txt":     "report submitted yesterday",
		"work/report.txt":    "quarterly report draft for review",
		"work/final.txt":     "quarterly report final version",
		"misc/recipe.txt":    "pancakes with milk and flour",
		"misc/page.html":     "<html><body>milk allergy information</body></html>",
		"misc/old-report.wp": ".wp 1.0\n.ti Old Report\nancient quarterly numbers\n",
		"misc/numbers.txt":   "2023 2024 2025",
	}
	for name, content := range files {
		if err := fs.WriteFile(name, []byte(content)); err != nil {
			t.Fatal(err)
		}
	}
	return fs
}

func paths(hits []Hit) []string {
	out := make([]string, len(hits))
	for i, h := range hits {
		out[i] = h.Path
	}
	sort.Strings(out)
	return out
}

// queryAll evaluates q unpaginated through the Query API — what tests use
// in place of the deprecated Search, whose contract is pinned once in
// TestSearchQueryDefaultsAgree.
func queryAll(t *testing.T, cat *Catalog, q string) []Hit {
	t.Helper()
	resp, err := cat.Query(context.Background(), Query{Text: q})
	if err != nil {
		t.Fatalf("Query(%q): %v", q, err)
	}
	return resp.Hits
}

func TestIndexFSAndSearch(t *testing.T) {
	cat, err := IndexFS(demoFS(t), ".", Options{})
	if err != nil {
		t.Fatal(err)
	}
	hits := queryAll(t, cat, "report")
	want := []string{"misc/old-report.wp", "notes/done.txt", "notes/todo.txt", "work/final.txt", "work/report.txt"}
	if !reflect.DeepEqual(paths(hits), want) {
		t.Errorf("report → %v", paths(hits))
	}
}

func TestSearchBooleanOperators(t *testing.T) {
	cat, err := IndexFS(demoFS(t), ".", Options{Implementation: ReplicatedSearch, Extractors: 3, Updaters: 2})
	if err != nil {
		t.Fatal(err)
	}
	hits := queryAll(t, cat, "quarterly report -draft")
	want := []string{"misc/old-report.wp", "work/final.txt"}
	if !reflect.DeepEqual(paths(hits), want) {
		t.Errorf("got %v, want %v", paths(hits), want)
	}
	if cat.Indices() != 2 {
		t.Errorf("Indices = %d, want 2 replicas", cat.Indices())
	}
}

func TestAllImplementationsAnswerIdentically(t *testing.T) {
	queries := []string{"milk", "report -quarterly", "milk OR report", "quarterly (final OR draft)"}
	var reference [][]string
	for _, impl := range []Implementation{Sequential, SharedIndex, ReplicatedJoin, ReplicatedSearch} {
		cat, err := IndexFS(demoFS(t), ".", Options{Implementation: impl, Extractors: 3, Updaters: 2, Joiners: 1})
		if err != nil {
			t.Fatalf("%d: %v", impl, err)
		}
		var answers [][]string
		for _, q := range queries {
			answers = append(answers, paths(queryAll(t, cat, q)))
		}
		if reference == nil {
			reference = answers
			continue
		}
		if !reflect.DeepEqual(answers, reference) {
			t.Errorf("implementation %d answers differ: %v vs %v", impl, answers, reference)
		}
	}
}

func TestFormatsOption(t *testing.T) {
	with, err := IndexFS(demoFS(t), ".", Options{Formats: true})
	if err != nil {
		t.Fatal(err)
	}
	hits := queryAll(t, with, "allergy")
	if len(hits) != 1 || hits[0].Path != "misc/page.html" {
		t.Errorf("formats on: allergy → %v", hits)
	}
	// Markup terms must not be indexed with Formats on.
	if hits := queryAll(t, with, "body"); len(hits) != 0 {
		t.Errorf("markup leaked: %v", hits)
	}
	without, err := IndexFS(demoFS(t), ".", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if hits := queryAll(t, without, "body"); len(hits) == 0 {
		t.Error("formats off should index raw markup")
	}
}

func TestStopwordsAndMinTermLen(t *testing.T) {
	cat, err := IndexFS(demoFS(t), ".", Options{Stopwords: []string{"report"}, MinTermLen: 3})
	if err != nil {
		t.Fatal(err)
	}
	if hits := queryAll(t, cat, "report"); len(hits) != 0 {
		t.Errorf("stopword indexed: %v", hits)
	}
	// MinTermLen 3 drops "wp" (2 bytes).
	if hits := queryAll(t, cat, "wp"); len(hits) != 0 {
		t.Errorf("short term indexed: %v", hits)
	}
}

func TestStats(t *testing.T) {
	cat, err := IndexFS(demoFS(t), ".", Options{Implementation: Sequential})
	if err != nil {
		t.Fatal(err)
	}
	s := cat.Stats()
	if s.Files != 8 {
		t.Errorf("Files = %d", s.Files)
	}
	if s.Terms == 0 || s.Postings == 0 {
		t.Errorf("empty stats: %+v", s)
	}
	if s.Skipped != 0 {
		t.Errorf("Skipped = %d", s.Skipped)
	}
	f, eu, j, sh, tot := cat.Timings()
	if f < 0 || eu <= 0 || j != 0 || sh != 0 || tot <= 0 {
		t.Errorf("timings = %v %v %v %v %v", f, eu, j, sh, tot)
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	for _, impl := range []Implementation{SharedIndex, ReplicatedSearch} {
		cat, err := IndexFS(demoFS(t), ".", Options{Implementation: impl, Extractors: 3, Updaters: 2})
		if err != nil {
			t.Fatal(err)
		}
		dir := t.TempDir()
		if err := cat.SaveDir(dir); err != nil {
			t.Fatal(err)
		}
		loaded, err := LoadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range []string{"report", "milk OR flour", "quarterly -draft"} {
			a := queryAll(t, cat, q)
			b := queryAll(t, loaded, q)
			if !reflect.DeepEqual(paths(a), paths(b)) {
				t.Errorf("impl %d %q: %v vs %v", impl, q, paths(a), paths(b))
			}
		}
		// Saving a replica catalog must leave it queryable (nothing is joined).
		if _, err := cat.Query(context.Background(), Query{Text: "report"}); err != nil {
			t.Errorf("catalog broken after SaveDir: %v", err)
		}
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "manifest.dsix"), []byte("not an index at all, sorry!"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadDir(dir); err == nil {
		t.Error("LoadDir accepted garbage")
	}
	if _, err := OpenDir(dir); err == nil {
		t.Error("OpenDir accepted garbage")
	}
}

func TestIndexDirOnHostFS(t *testing.T) {
	dir := t.TempDir()
	fs := vfs.NewOSFS(dir)
	if err := fs.WriteFile("a/hello.txt", []byte("hello desktop search")); err != nil {
		t.Fatal(err)
	}
	cat, err := IndexDir(dir, Options{Implementation: Sequential})
	if err != nil {
		t.Fatal(err)
	}
	hits := queryAll(t, cat, "desktop")
	if len(hits) != 1 || hits[0].Path != "a/hello.txt" {
		t.Errorf("hits = %v", hits)
	}
}

func TestInvalidOptions(t *testing.T) {
	if _, err := IndexFS(demoFS(t), ".", Options{Implementation: Implementation(42)}); err == nil {
		t.Error("bad implementation accepted")
	}
	if _, err := IndexFS(demoFS(t), "missing", Options{}); err == nil {
		t.Error("missing root accepted")
	}
}

func TestAutoConfiguration(t *testing.T) {
	cat, err := IndexFS(demoFS(t), ".", Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Auto uses ReplicatedSearch with ≥2 replicas on any multicore host.
	if cat.Indices() < 1 {
		t.Errorf("Indices = %d", cat.Indices())
	}
}

func TestTopTerms(t *testing.T) {
	for _, impl := range []Implementation{Sequential, ReplicatedSearch} {
		cat, err := IndexFS(demoFS(t), ".", Options{Implementation: impl, Extractors: 3, Updaters: 2})
		if err != nil {
			t.Fatal(err)
		}
		top := cat.TopTerms(3)
		if len(top) != 3 {
			t.Fatalf("impl %d: TopTerms = %v", impl, top)
		}
		// "report" appears in 5 files; "milk" in 3.
		if top[0].Term != "report" || top[0].Files != 5 {
			t.Errorf("impl %d: top term = %+v, want report/5", impl, top[0])
		}
		if cat.TopTerms(0) != nil {
			t.Error("TopTerms(0) should be nil")
		}
		// The catalog must stay queryable after aggregation.
		if _, err := cat.Query(context.Background(), Query{Text: "report"}); err != nil {
			t.Errorf("catalog broken after TopTerms: %v", err)
		}
	}
}

func TestSearchParseError(t *testing.T) {
	cat, err := IndexFS(demoFS(t), ".", Options{Implementation: Sequential})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cat.Query(context.Background(), Query{Text: "((("}); err == nil {
		t.Error("bad query accepted")
	}
}

// TestShardedSearchMatchesSingleIndex is the sharding acceptance check: a
// 4-shard catalog must return byte-identical hits — same paths, same
// scores, same order — as the single sequential index over the same corpus.
func TestShardedSearchMatchesSingleIndex(t *testing.T) {
	single, err := IndexFS(demoFS(t), ".", Options{Implementation: Sequential})
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := IndexFS(demoFS(t), ".", Options{Implementation: Sequential, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	if sharded.Shards() != 4 || sharded.Indices() != 4 {
		t.Fatalf("Shards = %d, Indices = %d, want 4", sharded.Shards(), sharded.Indices())
	}
	queries := []string{
		"report", "milk", "quarterly report -draft", "milk OR report",
		"quarterly (final OR draft)", "-milk", "report -quarterly",
	}
	for _, q := range queries {
		a := queryAll(t, single, q)
		b := queryAll(t, sharded, q)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%q: sharded hits differ:\nsingle:  %v\nsharded: %v", q, a, b)
		}
	}
}

// TestShardedBuildsAgreeAcrossImplementations runs every pipeline design
// with shards on and checks they all answer like the unsharded sequential
// build.
func TestShardedBuildsAgreeAcrossImplementations(t *testing.T) {
	reference, err := IndexFS(demoFS(t), ".", Options{Implementation: Sequential})
	if err != nil {
		t.Fatal(err)
	}
	queries := []string{"report", "milk OR flour", "quarterly -draft"}
	for _, impl := range []Implementation{Sequential, SharedIndex, ReplicatedJoin, ReplicatedSearch} {
		cat, err := IndexFS(demoFS(t), ".", Options{Implementation: impl, Extractors: 3, Updaters: 2, Shards: 4})
		if err != nil {
			t.Fatalf("impl %d: %v", impl, err)
		}
		for _, q := range queries {
			a := queryAll(t, reference, q)
			b := queryAll(t, cat, q)
			if !reflect.DeepEqual(a, b) {
				t.Errorf("impl %d %q: %v vs %v", impl, q, a, b)
			}
		}
	}
}

func TestSaveDirLoadDirRoundTrip(t *testing.T) {
	cases := []Options{
		{Implementation: Sequential, Shards: 4},
		{Implementation: ReplicatedSearch, Extractors: 3, Updaters: 2, Shards: 2},
		// Unsharded catalogs save their partitions as shards.
		{Implementation: ReplicatedSearch, Extractors: 3, Updaters: 2},
		{Implementation: Sequential},
	}
	for _, opt := range cases {
		cat, err := IndexFS(demoFS(t), ".", opt)
		if err != nil {
			t.Fatal(err)
		}
		dir := t.TempDir()
		if err := cat.SaveDir(dir); err != nil {
			t.Fatalf("%+v: SaveDir: %v", opt, err)
		}
		loaded, err := LoadDir(dir)
		if err != nil {
			t.Fatalf("%+v: LoadDir: %v", opt, err)
		}
		for _, q := range []string{"report", "milk OR flour", "quarterly -draft"} {
			a := queryAll(t, cat, q)
			b := queryAll(t, loaded, q)
			if !reflect.DeepEqual(a, b) {
				t.Errorf("%+v %q: %v vs %v", opt, q, a, b)
			}
		}
		// The saved catalog must stay queryable (SaveDir reads, not moves).
		if _, err := cat.Query(context.Background(), Query{Text: "report"}); err != nil {
			t.Errorf("catalog broken after SaveDir: %v", err)
		}
		// A catalog that remembers dir may skip clean segments only when
		// saving back into dir: a save elsewhere — from the catalog that
		// wrote dir or from one loaded out of it — writes the manifest and
		// every segment, byte for byte what dir holds.
		for name, src := range map[string]*Catalog{"saved": cat, "loaded": loaded} {
			other := t.TempDir()
			if err := src.SaveDir(other); err != nil {
				t.Fatalf("%+v: %s catalog SaveDir to a second directory: %v", opt, name, err)
			}
			if got, want := dirDigest(t, other), dirDigest(t, dir); got != want {
				t.Errorf("%+v: %s catalog saved %s to a second directory, first holds %s", opt, name, got, want)
			}
			if _, err := LoadDir(other); err != nil {
				t.Errorf("%+v: second directory of the %s catalog does not load: %v", opt, name, err)
			}
		}
	}
}

func TestLoadDirRejectsMissing(t *testing.T) {
	if _, err := LoadDir(t.TempDir()); err == nil {
		t.Error("empty directory accepted")
	}
}
