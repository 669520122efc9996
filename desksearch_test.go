package desksearch

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"testing"

	"desksearch/internal/corpus"
	"desksearch/internal/postings"
	"desksearch/internal/vfs"
)

// writeHostFile writes content to the slash-separated name under dir,
// creating its parents.
func writeHostFile(t *testing.T, dir, name, content string) {
	t.Helper()
	p := filepath.Join(dir, filepath.FromSlash(name))
	if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}

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
	cat, err := IndexFS(demoFS(t), ".", Options{Extractors: 3, Updaters: 2})
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

// TestMarkupIsIndexed: there is one extraction rule, so a page's markup
// is indexed beside its text, and an Update re-extracts a changed page
// exactly as a fresh build of the new tree extracts it.
func TestMarkupIsIndexed(t *testing.T) {
	fs := demoFS(t)
	cat, err := IndexFS(fs, ".", Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []string{"allergy", "body", "html"} {
		if got := paths(queryAll(t, cat, q)); !reflect.DeepEqual(got, []string{"misc/page.html"}) {
			t.Errorf("%s → %v, want the page", q, got)
		}
	}
	page := "<html><head><title>menu</title></head><body>milk free pancakes</body></html>"
	if err := fs.WriteFile("misc/page.html", []byte(page)); err != nil {
		t.Fatal(err)
	}
	if st, err := cat.Update(fs, "."); err != nil || st.Modified != 1 {
		t.Fatalf("Update = %+v, %v; want one modified file", st, err)
	}
	fresh, err := IndexFS(fs, ".", Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []string{"allergy", "body", "html", "title", "menu", "milk", "pancakes -html", "report OR head"} {
		for _, rank := range []Ranking{RankCount, RankTF, RankBM25} {
			got, want := rankedSet(t, cat, q, rank), rankedSet(t, fresh, q, rank)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%q (%v) after Update → %v, fresh build → %v", q, rank, got, want)
			}
		}
	}
}

func TestStats(t *testing.T) {
	cat, err := IndexFS(demoFS(t), ".", Options{Extractors: 1})
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
	for _, opt := range []Options{{Extractors: 3, Updaters: 1}, {Extractors: 3, Updaters: 2}} {
		cat, err := IndexFS(demoFS(t), ".", opt)
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
				t.Errorf("%+v %q: %v vs %v", opt, q, paths(a), paths(b))
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
	writeHostFile(t, dir, "a/hello.txt", "hello desktop search")
	cat, err := IndexDir(dir, Options{Extractors: 1})
	if err != nil {
		t.Fatal(err)
	}
	hits := queryAll(t, cat, "desktop")
	if len(hits) != 1 || hits[0].Path != "a/hello.txt" {
		t.Errorf("hits = %v", hits)
	}
}

func TestInvalidOptions(t *testing.T) {
	if _, err := IndexFS(demoFS(t), "missing", Options{}); err == nil {
		t.Error("missing root accepted")
	}
}

func TestAutoConfiguration(t *testing.T) {
	cat, err := IndexFS(demoFS(t), ".", Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Zero options run core.Auto's tuple: two updaters, two partitions.
	if cat.Indices() != 2 {
		t.Errorf("Indices = %d, want 2", cat.Indices())
	}
}

// TestUpdatersAloneKeepTheirCount: only the zero fields are sized for the
// machine, so Updaters set without Extractors keeps its value.
func TestUpdatersAloneKeepTheirCount(t *testing.T) {
	cat, err := IndexFS(demoFS(t), ".", Options{Updaters: 4})
	if err != nil {
		t.Fatal(err)
	}
	if cat.Indices() != 4 {
		t.Errorf("Indices = %d, want one partition per updater, 4", cat.Indices())
	}
}

// TestBuiltListsHaveNoSpareCapacity: a build sizes every posting list's
// columns exactly, so each list's storage is four bytes per ID, per
// frequency or run end it keeps, and per position — none spare — whichever
// tuple built it, sharded or not.
func TestBuiltListsHaveNoSpareCapacity(t *testing.T) {
	fs := vfs.NewMemFS()
	spec := corpus.PaperSpec().Scale(1.0 / 128)
	spec.Files, spec.TotalBytes = 60, 1<<19
	if _, err := corpus.Generate(spec, fs); err != nil {
		t.Fatal(err)
	}
	for _, opt := range []Options{
		{},
		{Positions: true, Shards: 4},
		{Extractors: 1, Positions: true},
		{Extractors: 3, Updaters: 1},
		{Extractors: 3, Positions: true, Shards: 2},
	} {
		cat, err := IndexFS(fs, ".", opt)
		if err != nil {
			t.Fatal(err)
		}
		lists := 0
		for _, ix := range cat.result.Indexes() {
			ix.Range(func(term string, l *postings.List) bool {
				size := l.Len()
				if l.HasPositions() || l.HasCounts() {
					size += l.Len()
				}
				for i := range l.Len() {
					size += len(l.PositionsAt(i))
				}
				if got := l.HeapBytes(); got != 4*int64(size) {
					t.Fatalf("%+v: %q: HeapBytes %d, want %d", opt, term, got, 4*size)
				}
				lists++
				return true
			})
		}
		if lists == 0 {
			t.Fatalf("%+v: built no lists", opt)
		}
	}
}

// TestLoadedCatalogUpdatesLikeABuild: a LoadDir catalog has no build tuple,
// so its updates run with as many extractors as a default build asks for,
// one per CPU — not the count the build capped to its eight files.
func TestLoadedCatalogUpdatesLikeABuild(t *testing.T) {
	cat, err := IndexFS(demoFS(t), ".", Options{Shards: 2})
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
	if got, want := loaded.result.Config.Extractors, cat.result.Config.Extractors; got != want || want != runtime.NumCPU() {
		t.Errorf("a loaded catalog updates with %d workers, a built one with %d, want %d", got, want, runtime.NumCPU())
	}
}

func TestTopTerms(t *testing.T) {
	for _, opt := range []Options{{Extractors: 1}, {Extractors: 3, Updaters: 2}} {
		cat, err := IndexFS(demoFS(t), ".", opt)
		if err != nil {
			t.Fatal(err)
		}
		top := cat.TopTerms(3)
		if len(top) != 3 {
			t.Fatalf("%+v: TopTerms = %v", opt, top)
		}
		// "report" appears in 5 files; "milk" in 3.
		if top[0].Term != "report" || top[0].Files != 5 {
			t.Errorf("%+v: top term = %+v, want report/5", opt, top[0])
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
	cat, err := IndexFS(demoFS(t), ".", Options{Extractors: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cat.Query(context.Background(), Query{Text: "((("}); err == nil {
		t.Error("bad query accepted")
	}
}

func TestSaveDirLoadDirRoundTrip(t *testing.T) {
	cases := []Options{
		{Extractors: 1, Shards: 4},
		{Extractors: 3, Updaters: 2, Shards: 2},
		// Unsharded catalogs save their partitions as shards.
		{Extractors: 3, Updaters: 2},
		{Extractors: 1},
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
