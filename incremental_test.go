package desksearch

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"desksearch/internal/postings"
	"desksearch/internal/vfs"
)

// resultSet canonicalizes a query's hits as sorted "path=score" strings:
// an incrementally updated catalog assigns different FileIDs (the ranking
// tie-breaker) than a fresh build, so paths and scores must agree but
// order within a score band may not.
func resultSet(t *testing.T, cat *Catalog, query string) []string {
	t.Helper()
	return rankedSet(t, cat, query, RankCount)
}

// rankedSet is resultSet under the given ranking.
func rankedSet(t *testing.T, cat *Catalog, query string, rank Ranking) []string {
	t.Helper()
	resp, err := cat.Query(context.Background(), Query{Text: query, Ranking: rank})
	if err != nil {
		t.Fatalf("Query(%q): %v", query, err)
	}
	out := make([]string, len(resp.Hits))
	for i, h := range resp.Hits {
		out[i] = fmt.Sprintf("%s=%g", h.Path, h.Score)
	}
	sort.Strings(out)
	return out
}

func TestUpdateNotQueryRegression(t *testing.T) {
	fs := demoFS(t)
	cat, err := IndexFS(fs, ".", Options{Extractors: 1, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Prime the NOT universe, then delete a file through Update.
	if hits := queryAll(t, cat, "-milk"); len(hits) == 0 {
		t.Fatal("priming query empty")
	}
	if err := fs.Remove("work/report.txt"); err != nil {
		t.Fatal(err)
	}
	st, err := cat.Update(fs, ".")
	if err != nil {
		t.Fatal(err)
	}
	if st.Deleted != 1 {
		t.Fatalf("stats = %+v, want one deletion", st)
	}
	for _, q := range []string{"-milk", "-quarterly", "report"} {
		for _, line := range resultSet(t, cat, q) {
			if strings.HasPrefix(line, "work/report.txt=") {
				t.Errorf("%q returned deleted file", q)
			}
		}
	}
	if s := cat.Stats(); s.Files != 7 {
		t.Errorf("Files = %d after deletion, want 7", s.Files)
	}
}

// lockedFS is a MemFS whose files named in locked fail to read.
type lockedFS struct {
	*vfs.MemFS
	locked map[string]bool
}

func (f lockedFS) ReadFile(name string) ([]byte, error) {
	if f.locked[name] {
		return nil, fmt.Errorf("%s is locked", name)
	}
	return f.MemFS.ReadFile(name)
}

// checkTermFree holds cat to the invariant its NOT rule reads: a live file
// has a token length of 0 exactly when no partition holds it, and no
// partition holds a deleted file.
func checkTermFree(t *testing.T, label string, cat *Catalog) {
	t.Helper()
	cat.engine.View(func() {
		files := cat.result.Files
		held := make([]bool, files.Len())
		for _, p := range cat.partitionsLocked() {
			for _, id := range p.Docs().IDs() {
				held[id] = true
			}
		}
		for i, h := range held {
			id := postings.FileID(i)
			switch {
			case !files.Live(id) && h:
				t.Errorf("%s: deleted %s is held by a partition", label, files.Path(id))
			case files.Live(id) && (files.Tokens(id) == 0) == h:
				t.Errorf("%s: %s has %d tokens; held by a partition: %v", label, files.Path(id), files.Tokens(id), h)
			}
		}
	})
}

// TestTermFreeInvariant: on every build path, after updates, and through
// both ways of reading a saved directory, the files no partition holds are
// exactly the live files with no tokens — an empty file, one whose words
// are all punctuation, an unreadable one, and one whose re-extraction
// failed on update.
func TestTermFreeInvariant(t *testing.T) {
	// Four tuples, labelled impl1–impl4: the sequential baseline, one
	// owner for every partition, one extractor feeding two owners, and two
	// extractors feeding two.
	for _, tc := range []struct {
		label string
		x, y  int
	}{{"impl1", 1, 0}, {"impl2", 2, 1}, {"impl3", 1, 2}, {"impl4", 2, 2}} {
		for _, shards := range []int{0, 3} {
			opt := Options{Extractors: tc.x, Updaters: tc.y, Shards: shards}
			t.Run(fmt.Sprintf("%s-shards%d", tc.label, shards), func(t *testing.T) {
				mem := demoFS(t)
				for name, body := range map[string]string{"misc/empty.txt": "", "misc/dashes.txt": "--- !!!", "misc/locked.txt": "locked away"} {
					if err := mem.WriteFile(name, []byte(body)); err != nil {
						t.Fatal(err)
					}
				}
				fs := lockedFS{MemFS: mem, locked: map[string]bool{"misc/locked.txt": true}}
				cat, err := IndexFS(fs, ".", opt)
				if err != nil {
					t.Fatal(err)
				}
				checkTermFree(t, "IndexFS", cat)

				if err := mem.Remove("work/report.txt"); err != nil {
					t.Fatal(err)
				}
				for _, name := range []string{"notes/todo.txt", "misc/recipe.txt"} {
					if err := mem.WriteFile(name, []byte("rewritten report")); err != nil {
						t.Fatal(err)
					}
				}
				fs.locked["misc/recipe.txt"] = true
				st, err := cat.Update(fs, ".")
				if err != nil {
					t.Fatal(err)
				}
				if st.Deleted != 1 || st.Modified != 1 || st.SkippedFiles != 1 {
					t.Fatalf("update = %+v, want one deletion, one modification, one failed re-extraction", st)
				}
				checkTermFree(t, "Update", cat)

				dir := t.TempDir()
				if err := cat.SaveDir(dir); err != nil {
					t.Fatal(err)
				}
				loaded, err := LoadDir(dir)
				if err != nil {
					t.Fatal(err)
				}
				checkTermFree(t, "LoadDir", loaded)
				opened, err := OpenDir(dir)
				if err != nil {
					t.Fatal(err)
				}
				defer opened.Close()
				checkTermFree(t, "OpenDir", opened)
			})
		}
	}
}

// TestBuildSkipIsRetried: a file the build could not read is registered
// pending, so once it reads, the next Update indexes it as a modification,
// on the built catalog and on one loaded from its saved directory alike.
// Stats.Skipped counts the pending files: one until the retry, through
// SaveDir and LoadDir, and none after it.
func TestBuildSkipIsRetried(t *testing.T) {
	mem := demoFS(t)
	if err := mem.WriteFile("misc/locked.txt", []byte("unlocked secrets")); err != nil {
		t.Fatal(err)
	}
	fs := lockedFS{MemFS: mem, locked: map[string]bool{"misc/locked.txt": true}}
	cat, err := IndexFS(fs, ".", Options{Extractors: 2, Updaters: 2, Shards: 3})
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
	delete(fs.locked, "misc/locked.txt")
	for _, tc := range []struct {
		label string
		cat   *Catalog
	}{{"built", cat}, {"loaded", loaded}} {
		if s := tc.cat.Stats(); s.Skipped != 1 {
			t.Fatalf("%s: Skipped = %d before the retry, want 1", tc.label, s.Skipped)
		}
		st, err := tc.cat.Update(fs, ".")
		if err != nil {
			t.Fatal(err)
		}
		if st.Added != 0 || st.Modified != 1 || st.Deleted != 0 || st.SkippedFiles != 0 {
			t.Fatalf("%s: retry = %+v, want the one pending file modified", tc.label, st)
		}
		if got := resultSet(t, tc.cat, "secrets"); len(got) != 1 || !strings.HasPrefix(got[0], "misc/locked.txt=") {
			t.Errorf("%s: secrets after the retry = %v", tc.label, got)
		}
		if s := tc.cat.Stats(); s.Skipped != 0 {
			t.Errorf("%s: Skipped = %d after the retry, want 0", tc.label, s.Skipped)
		}
		if st, err := tc.cat.Update(fs, "."); err != nil || st != (UpdateStats{}) {
			t.Errorf("%s: second Update = %+v, %v; want nothing to do", tc.label, st, err)
		}
		checkTermFree(t, tc.label, tc.cat)
	}
}

// flakyReadFS is a MemFS whose reads of a path fail while its count in
// fails is positive, one failure per read; a negative count fails forever.
type flakyReadFS struct {
	*vfs.MemFS
	mu    sync.Mutex
	fails map[string]int
}

func (f *flakyReadFS) ReadFile(name string) ([]byte, error) {
	f.mu.Lock()
	n := f.fails[name]
	if n > 0 {
		f.fails[name] = n - 1
	}
	f.mu.Unlock()
	if n != 0 {
		return nil, fmt.Errorf("%s is locked", name)
	}
	return f.MemFS.ReadFile(name)
}

// TestFailedAddIsNotRegistered: an add whose read fails is dropped from
// its update and the others renumbered, so the file table grows by exactly
// the adds registered. One that fails on its first read only is
// registered by the next Update, once; one that always fails leaves the
// table as it was through any number of Updates.
func TestFailedAddIsNotRegistered(t *testing.T) {
	mem := demoFS(t)
	fs := &flakyReadFS{MemFS: mem, fails: map[string]int{}}
	cat, err := IndexFS(fs, ".", Options{Extractors: 2, Updaters: 2, Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	length := func() int {
		var n int
		cat.engine.View(func() { n = cat.result.Files.Len() })
		return n
	}
	// The flaky add lists before the healthy one, which the dropped add
	// leaves to be renumbered.
	for name, body := range map[string]string{"misc/a-flaky.txt": "flaky words", "misc/b-fresh.txt": "fresh words"} {
		if err := mem.WriteFile(name, []byte(body)); err != nil {
			t.Fatal(err)
		}
	}
	fs.fails["misc/a-flaky.txt"] = 1
	want := length()
	// The first update registers the healthy add and skips the flaky one,
	// the second registers the flaky one, and the third has nothing to do.
	for i, wantStats := range [][2]int{{1, 1}, {1, 0}, {0, 0}} {
		st, err := cat.Update(fs, ".")
		if err != nil {
			t.Fatal(err)
		}
		want += st.Added
		if st.Added != wantStats[0] || st.SkippedFiles != wantStats[1] || st.Modified != 0 {
			t.Fatalf("update %d = %+v, want %d added and %d skipped", i, st, wantStats[0], wantStats[1])
		}
		if got := length(); got != want {
			t.Fatalf("update %d: file table holds %d slots, want %d", i, got, want)
		}
	}
	for _, q := range []string{"flaky", "fresh"} {
		if got := resultSet(t, cat, q); len(got) != 1 {
			t.Errorf("%q = %v, want one file", q, got)
		}
	}
	checkTermFree(t, "flaky add", cat)

	if err := mem.WriteFile("misc/c-locked.txt", []byte("never read")); err != nil {
		t.Fatal(err)
	}
	fs.fails["misc/c-locked.txt"] = -1
	for i := range 5 {
		st, err := cat.Update(fs, ".")
		if err != nil {
			t.Fatal(err)
		}
		if st.Added != 0 || st.SkippedFiles != 1 {
			t.Fatalf("locked update %d = %+v, want the one add skipped", i, st)
		}
		if got := length(); got != want {
			t.Fatalf("locked update %d: file table holds %d slots, want %d", i, got, want)
		}
	}
	if s := cat.Stats(); s.Skipped != 0 {
		t.Errorf("Skipped = %d; an add that failed is not registered, so not counted", s.Skipped)
	}
}

// TestUpdateMatchesRebuildProperty holds the partitions of a catalog
// driven through random churn with Catalog.Update to those of a catalog
// freshly built from the final tree (checkPartitionsMatchRebuild) —
// across thread tuples and partition shapes. What the updated
// catalog answers is held to the reference by TestEveryShapeMatchesOracle.
func TestUpdateMatchesRebuildProperty(t *testing.T) {
	configs := []Options{
		{Extractors: 1},
		{Extractors: 1, Shards: 4},
		{Extractors: 3, Updaters: 2},
		{Extractors: 3, Shards: 3},
	}
	vocab := []string{"alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta", "theta"}
	content := func(rng *rand.Rand) string {
		n := 1 + rng.Intn(5)
		words := make([]string, n)
		for i := range words {
			words[i] = vocab[rng.Intn(len(vocab))]
		}
		return strings.Join(words, " ")
	}

	for ci, opt := range configs {
		t.Run(fmt.Sprintf("config-%d", ci), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(42 + ci)))
			fs := vfs.NewMemFS()
			live := []string{}
			for i := 0; i < 30; i++ {
				name := fmt.Sprintf("dir%d/f%02d.txt", i%5, i)
				if err := fs.WriteFile(name, []byte(content(rng))); err != nil {
					t.Fatal(err)
				}
				live = append(live, name)
			}
			cat, err := IndexFS(fs, ".", opt)
			if err != nil {
				t.Fatal(err)
			}

			next := 30
			for round := 0; round < 6; round++ {
				// Random churn: a few modifies, deletes, and adds.
				for i := 0; i < 4; i++ {
					switch op := rng.Intn(3); {
					case op == 0 || len(live) < 5: // add
						name := fmt.Sprintf("dir%d/f%02d.txt", next%5, next)
						next++
						fs.WriteFile(name, []byte(content(rng)))
						live = append(live, name)
					case op == 1: // modify
						fs.WriteFile(live[rng.Intn(len(live))], []byte(content(rng)))
					default: // delete
						k := rng.Intn(len(live))
						fs.Remove(live[k])
						live = append(live[:k], live[k+1:]...)
					}
				}
				if _, err := cat.Update(fs, "."); err != nil {
					t.Fatal(err)
				}
				rebuilt, err := IndexFS(fs, ".", opt)
				if err != nil {
					t.Fatal(err)
				}
				if gs, ws := cat.Stats(), rebuilt.Stats(); gs.Files != ws.Files {
					t.Fatalf("round %d: Files %d vs rebuild %d", round, gs.Files, ws.Files)
				}
				checkPartitionsMatchRebuild(t, fmt.Sprintf("round %d", round), cat, rebuilt)
			}
		})
	}
}

// checkPartitionsMatchRebuild holds every partition of an updated catalog
// to a rebuild of the same tree. The two number files differently, so they
// are compared by path: a partition's Docs names the files its lists hold
// and no others, the partitions split the rebuild's files between them,
// and a partition's TermsFrom("") walk is, in ascending order, every term
// the rebuild holds for those files with its document frequency among
// them.
func checkPartitionsMatchRebuild(t *testing.T, at string, cat, rebuilt *Catalog) {
	t.Helper()
	holders := map[string][]string{} // rebuild: term → paths holding it
	var rebuiltDocs []string
	rebuilt.engine.View(func() {
		files := rebuilt.result.Files
		for _, p := range rebuilt.partitionsLocked() {
			for _, id := range p.Docs().IDs() {
				rebuiltDocs = append(rebuiltDocs, files.Path(id))
			}
			w := p.TermsFrom("")
			for term, _, ok := w.Next(); ok; term, _, ok = w.Next() {
				for _, id := range p.Lookup(term).IDs() {
					holders[term] = append(holders[term], files.Path(id))
				}
			}
		}
	})
	var gotDocs []string
	cat.engine.View(func() {
		files := cat.result.Files
		for i, p := range cat.partitionsLocked() {
			docs := map[string]bool{}
			for _, id := range p.Docs().IDs() {
				docs[files.Path(id)] = true
				gotDocs = append(gotDocs, files.Path(id))
			}
			type termDF struct {
				term string
				df   int
			}
			var walked, want []termDF
			held := map[string]bool{}
			w := p.TermsFrom("")
			for term, df, ok := w.Next(); ok; term, df, ok = w.Next() {
				walked = append(walked, termDF{term, df})
				for _, id := range p.Lookup(term).IDs() {
					held[files.Path(id)] = true
				}
			}
			if !reflect.DeepEqual(held, docs) {
				t.Fatalf("%s: partition %d: Docs %v, its lists hold %v", at, i, docs, held)
			}
			terms := make([]string, 0, len(holders))
			for term := range holders {
				terms = append(terms, term)
			}
			sort.Strings(terms)
			for _, term := range terms {
				df := 0
				for _, path := range holders[term] {
					if docs[path] {
						df++
					}
				}
				if df > 0 {
					want = append(want, termDF{term, df})
				}
			}
			if !reflect.DeepEqual(walked, want) {
				t.Fatalf("%s: partition %d walks %v, rebuild %v", at, i, walked, want)
			}
		}
	})
	sort.Strings(gotDocs)
	sort.Strings(rebuiltDocs)
	if !slices.Equal(gotDocs, rebuiltDocs) {
		t.Fatalf("%s: partitions hold %v, rebuild %v", at, gotDocs, rebuiltDocs)
	}
}

// segmentState fingerprints every file in a catalog directory.
func segmentState(t *testing.T, dir string) map[string]string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]string, len(entries))
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = fmt.Sprintf("%d:%x", len(data), fnvSum(data))
	}
	return out
}

func fnvSum(data []byte) uint64 {
	var h uint64 = 14695981039346656037
	for _, b := range data {
		h = (h * 1099511628211) ^ uint64(b)
	}
	return h
}

// TestSaveDirUpdateRoundTrip covers the ISSUE's persistence checklist:
// SaveDir → LoadDir → Update → SaveDir. With no churn the second save must
// leave every file byte-identical to the first (the manifest re-encodes to
// the same bytes, segments are not rewritten at all); with churn, only the
// dirty segments plus the manifest may change on disk.
func TestSaveDirUpdateRoundTrip(t *testing.T) {
	fs := demoFS(t)
	cat, err := IndexFS(fs, ".", Options{Extractors: 1, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := cat.SaveDir(dir); err != nil {
		t.Fatal(err)
	}
	before := segmentState(t, dir)

	loaded, err := LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}

	// No churn: Update is a no-op and a re-save reproduces every byte.
	st, err := loaded.Update(fs, ".")
	if err != nil {
		t.Fatal(err)
	}
	if st != (UpdateStats{}) {
		t.Fatalf("no-op update stats = %+v", st)
	}
	if got := loaded.DirtySegments(); got != 0 {
		t.Fatalf("no-op update dirtied %d segments", got)
	}
	if err := loaded.SaveDir(dir); err != nil {
		t.Fatal(err)
	}
	if after := segmentState(t, dir); !reflect.DeepEqual(after, before) {
		t.Errorf("no-op save changed bytes on disk:\nbefore %v\nafter  %v", before, after)
	}

	// Churn one file: exactly the owning segment and the manifest change.
	if err := fs.WriteFile("misc/recipe.txt", []byte("pancakes with oat milk and flour")); err != nil {
		t.Fatal(err)
	}
	st, err = loaded.Update(fs, ".")
	if err != nil {
		t.Fatal(err)
	}
	if st.Modified != 1 || st.Added != 0 || st.Deleted != 0 {
		t.Fatalf("churn stats = %+v", st)
	}
	dirty := loaded.DirtySegments()
	if dirty != 1 {
		t.Fatalf("one-file modify dirtied %d segments, want 1", dirty)
	}
	if err := loaded.SaveDir(dir); err != nil {
		t.Fatal(err)
	}
	after := segmentState(t, dir)
	changed := []string{}
	for name, sum := range after {
		if before[name] != sum {
			changed = append(changed, name)
		}
	}
	sort.Strings(changed)
	// The manifest always rewrites (its file table gained a new mtime);
	// exactly one segment may have changed alongside it.
	wantChanged := 2
	if len(changed) != wantChanged || changed[1] != "manifest.dsix" && changed[0] != "manifest.dsix" {
		t.Errorf("changed files = %v, want manifest + 1 segment", changed)
	}

	// And the reloaded result must equal a fresh build of the final tree.
	rebuilt, err := IndexFS(fs, ".", Options{Extractors: 1, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	reloaded, err := LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []string{"report", "milk OR flour", "quarterly -draft", "-milk", "oat"} {
		want := resultSet(t, rebuilt, q)
		if got := resultSet(t, loaded, q); !reflect.DeepEqual(got, want) {
			t.Errorf("%q: updated %v, rebuild %v", q, got, want)
		}
		if got := resultSet(t, reloaded, q); !reflect.DeepEqual(got, want) {
			t.Errorf("%q: reloaded %v, rebuild %v", q, got, want)
		}
	}
}

// TestUnshardedSaveDirIsIncremental: a catalog built without
// Options.Shards is hash-routed like any other, so saving it back after a
// one-file update rewrites that file's segment and the manifest alone, and
// every other segment file keeps its bytes.
func TestUnshardedSaveDirIsIncremental(t *testing.T) {
	fs := demoFS(t)
	cat, err := IndexFS(fs, ".", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if cat.Indices() < 2 {
		t.Fatalf("Auto built %d partitions, want one per replica, at least 2", cat.Indices())
	}
	dir := t.TempDir()
	if err := cat.SaveDir(dir); err != nil {
		t.Fatal(err)
	}
	if got := cat.DirtySegments(); got != 0 {
		t.Fatalf("after a save, %d segments dirty", got)
	}
	before := segmentState(t, dir)

	if err := fs.WriteFile("misc/recipe.txt", []byte("pancakes with oat milk and flour")); err != nil {
		t.Fatal(err)
	}
	if st, err := cat.Update(fs, "."); err != nil || st.Modified != 1 {
		t.Fatalf("Update = %+v, %v; want one modified file", st, err)
	}
	if got := cat.DirtySegments(); got != 1 {
		t.Fatalf("one-file modify dirtied %d segments, want 1", got)
	}
	if err := cat.SaveDir(dir); err != nil {
		t.Fatal(err)
	}
	var changed []string
	for name, sum := range segmentState(t, dir) {
		if before[name] != sum {
			changed = append(changed, name)
		}
	}
	sort.Strings(changed)
	if len(changed) != 2 || changed[0] != "manifest.dsix" {
		t.Errorf("changed files = %v, want the manifest and one segment", changed)
	}
}

// TestConcurrentSearchAndCatalogUpdate races queries against incremental
// updates at the public API level; meaningful under -race.
func TestConcurrentSearchAndCatalogUpdate(t *testing.T) {
	fs := demoFS(t)
	cat, err := IndexFS(fs, ".", Options{Extractors: 1, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			queries := []string{"report", "-milk", "quarterly OR flour"}
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := cat.Query(context.Background(), Query{Text: queries[i%len(queries)]}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	// Persistence state readers/writers race the updates too.
	wg.Add(1)
	go func() {
		defer wg.Done()
		dir := t.TempDir()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			_ = cat.DirtySegments()
			if i%5 == 0 {
				if err := cat.SaveDir(dir); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(stop)
		for i := 0; i < 25; i++ {
			name := fmt.Sprintf("churn/f%d.txt", i%5)
			if err := fs.WriteFile(name, []byte(fmt.Sprintf("report revision %d", i))); err != nil {
				t.Error(err)
				return
			}
			if _, err := cat.Update(fs, "."); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
}

// TestCatalogViewLockOrder calls every Catalog method that reads under
// the engine's View concurrently with a loop of updates, under a deadline.
// Go's RWMutex admits no new reader while a writer waits, so a View
// callback that takes the read lock again deadlocks as soon as an update
// queues for the write lock between the two acquisitions; here that fails
// as a timeout instead of hanging the suite. The updates run for a fixed
// time rather than a fixed count, so a race-instrumented run takes no
// longer.
func TestCatalogViewLockOrder(t *testing.T) {
	const churn, deadline = 2 * time.Second, 20 * time.Second
	fs := demoFS(t)
	cat, err := IndexFS(fs, ".", Options{Extractors: 1, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	views := map[string]func() error{
		"Stats":              func() error { cat.Stats(); return nil },
		"Lazy":               func() error { cat.Lazy(); return nil },
		"TotalShards":        func() error { cat.TotalShards(); return nil },
		"BlockCache":         func() error { cat.BlockCache(); return nil },
		"SegmentCorruptions": func() error { cat.SegmentCorruptions(); return nil },
		"Positional":         func() error { cat.Positional(); return nil },
		"Timings":            func() error { cat.Timings(); return nil },
		"TopTerms":           func() error { cat.TopTerms(5); return nil },
		"DirtySegments":      func() error { cat.DirtySegments(); return nil },
		"Diff":               func() error { _, err := cat.Diff(fs, "."); return err },
		"SaveDir":            func() error { return cat.SaveDir(dir) },
	}
	stop := make(chan struct{})
	halt := sync.OnceFunc(func() { close(stop) })
	var wg sync.WaitGroup
	for name, call := range views {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if err := call(); err != nil {
					t.Errorf("%s: %v", name, err)
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer halt()
		for i, end := 0, time.Now().Add(churn); time.Now().Before(end); i++ {
			// A changed file every round, so every Update commits
			// through the engine's write lock.
			if err := fs.WriteFile("churn/f.txt", []byte(fmt.Sprintf("report revision %d", i))); err != nil {
				t.Error(err)
				return
			}
			if _, err := cat.Update(fs, "."); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(deadline):
		halt()
		buf := make([]byte, 1<<20)
		t.Fatalf("View callers and %v of updates did not finish within %v: a View callback re-entered the read lock\n%s",
			churn, deadline, buf[:runtime.Stack(buf, true)])
	}
}

// TestApplyTwiceIsIdempotent: a caller retrying Apply with the same
// changeset must not duplicate files or postings.
func TestApplyTwiceIsIdempotent(t *testing.T) {
	fs := demoFS(t)
	cat, err := IndexFS(fs, ".", Options{Extractors: 1, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFile("notes/extra.txt", []byte("report appendix")); err != nil {
		t.Fatal(err)
	}
	if err := fs.Remove("misc/numbers.txt"); err != nil {
		t.Fatal(err)
	}
	cs, err := cat.Diff(fs, ".")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cat.Apply(fs, cs); err != nil {
		t.Fatal(err)
	}
	once := cat.Stats()
	st, err := cat.Apply(fs, cs)
	if err != nil {
		t.Fatal(err)
	}
	if st.Added != 0 || st.Deleted != 0 {
		t.Errorf("second apply stats = %+v, want no adds or deletes", st)
	}
	if twice := cat.Stats(); twice != once {
		t.Errorf("stats changed on double apply: %+v vs %+v", twice, once)
	}
	rebuilt, err := IndexFS(fs, ".", Options{Extractors: 1, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []string{"report", "appendix", "-milk", "2024"} {
		got, want := resultSet(t, cat, q), resultSet(t, rebuilt, q)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%q after double apply: %v, want %v", q, got, want)
		}
	}
}

func TestUpdateDirOnHostFS(t *testing.T) {
	dir := t.TempDir()
	writeHostFile(t, dir, "a/one.txt", "desktop search rules")
	cat, err := IndexDir(dir, Options{Extractors: 1})
	if err != nil {
		t.Fatal(err)
	}
	writeHostFile(t, dir, "a/two.txt", "brand new document")
	st, err := cat.UpdateDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if st.Added != 1 {
		t.Fatalf("stats = %+v", st)
	}
	hits := queryAll(t, cat, "brand")
	if len(hits) != 1 || hits[0].Path != "a/two.txt" {
		t.Errorf("hits = %v", hits)
	}
}
