package delta

import (
	"context"
	"fmt"
	"io/fs"
	"reflect"
	"sort"
	"sync"
	"testing"

	"desksearch/internal/core"
	"desksearch/internal/index"
	"desksearch/internal/postings"
	"desksearch/internal/search"
	"desksearch/internal/shard"
	"desksearch/internal/vfs"
)

func seedFS(t *testing.T) *vfs.MemFS {
	t.Helper()
	fs := vfs.NewMemFS()
	files := []struct{ name, content string }{
		{"docs/a.txt", "alpha beta"},
		{"docs/b.txt", "beta gamma"},
		{"notes/c.txt", "gamma delta alpha"},
		{"notes/d.txt", "epsilon"},
	}
	for _, f := range files {
		if err := fs.WriteFile(f.name, []byte(f.content)); err != nil {
			t.Fatal(err)
		}
	}
	return fs
}

func build(t *testing.T, fsys fs.FS, shards int) *core.Result {
	t.Helper()
	res, err := core.Run(fsys, ".", core.Config{Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// sizes sums the terms and postings of res's partitions.
func sizes(res *core.Result) (terms int, postings int64) {
	for _, ix := range res.Indexes() {
		terms += ix.NumTerms()
		postings += ix.NumPostings()
	}
	return terms, postings
}

func opsByPath(cs *Changeset) map[string]Op {
	out := make(map[string]Op, len(cs.Changes))
	for _, c := range cs.Changes {
		out[c.Path] = c.Op
	}
	return out
}

func TestDiffCleanTreeIsEmpty(t *testing.T) {
	fs := seedFS(t)
	res := build(t, fs, 0)
	cs, err := Diff(fs, ".", res.Files)
	if err != nil {
		t.Fatal(err)
	}
	if !cs.Empty() {
		t.Errorf("clean tree diff = %s: %+v", cs, cs.Changes)
	}
}

func TestDiffDetectsAddModifyDelete(t *testing.T) {
	fs := seedFS(t)
	res := build(t, fs, 0)

	if err := fs.WriteFile("docs/new.txt", []byte("zeta")); err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFile("docs/a.txt", []byte("alpha rewritten")); err != nil {
		t.Fatal(err)
	}
	if err := fs.Remove("notes/d.txt"); err != nil {
		t.Fatal(err)
	}

	cs, err := Diff(fs, ".", res.Files)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]Op{
		"docs/new.txt": OpAdd,
		"docs/a.txt":   OpModify,
		"notes/d.txt":  OpDelete,
	}
	if got := opsByPath(cs); !reflect.DeepEqual(got, want) {
		t.Errorf("diff ops = %v, want %v", got, want)
	}
	a, m, d := cs.Counts()
	if a != 1 || m != 1 || d != 1 {
		t.Errorf("counts = %d/%d/%d", a, m, d)
	}
	// The modify change must carry the existing FileID.
	for _, c := range cs.Changes {
		if c.Op == OpModify {
			if id, ok := res.Files.Lookup(c.Path); !ok || id != c.ID {
				t.Errorf("modify carries ID %d, table says %d", c.ID, id)
			}
		}
	}
}

// TestDiffDetectsSameSizeEdit: a rewrite that keeps the byte size must
// still be caught via the modification stamp.
func TestDiffDetectsSameSizeEdit(t *testing.T) {
	fs := seedFS(t)
	res := build(t, fs, 0)
	// Same length as "alpha beta", different content and a fresh mtime.
	if err := fs.WriteFile("docs/a.txt", []byte("alphA betA")); err != nil {
		t.Fatal(err)
	}
	cs, err := Diff(fs, ".", res.Files)
	if err != nil {
		t.Fatal(err)
	}
	if got := opsByPath(cs); got["docs/a.txt"] != OpModify || len(got) != 1 {
		t.Errorf("same-size edit diff = %v", got)
	}
}

// applyAll is the full update path as the catalog drives it.
func applyAll(t *testing.T, fsys fs.FS, res *core.Result) Stats {
	t.Helper()
	cs, err := Diff(fsys, ".", res.Files)
	if err != nil {
		t.Fatal(err)
	}
	plan := Prepare(fsys, cs, res)
	if len(plan.Skipped) != 0 {
		t.Fatalf("unexpected skips: %v", plan.Skipped)
	}
	return plan.Commit(Target{Files: res.Files, Partitions: res.Indexes()})
}

// searchAll returns every hit for query, through the engine's one entry
// point.
func searchAll(t *testing.T, e *search.Engine, query string) []search.Hit {
	t.Helper()
	resp, err := e.Query(context.Background(), search.Request{Query: search.MustParse(query)})
	if err != nil {
		t.Fatal(err)
	}
	return resp.Hits
}

// searchSet canonicalizes results for cross-catalog comparison: FileIDs
// differ between an updated and a rebuilt index, paths and scores must not.
func searchSet(t *testing.T, files *index.FileTable, parts []*index.Index, query string) []string {
	t.Helper()
	hits := searchAll(t, search.NewEngine(files, index.Partitions(parts)...), query)
	out := make([]string, len(hits))
	for i, h := range hits {
		out[i] = fmt.Sprintf("%s=%g", h.Path, h.Score)
	}
	sort.Strings(out)
	return out
}

func TestCommitMatchesRebuild(t *testing.T) {
	for _, shards := range []int{0, 1, 3} {
		t.Run(fmt.Sprintf("shards-%d", shards), func(t *testing.T) {
			fs := seedFS(t)
			res := build(t, fs, shards)

			// Churn: add, modify, delete, and delete-then-recreate.
			steps := []func(){
				func() {
					fs.WriteFile("docs/new.txt", []byte("zeta alpha"))
					fs.Remove("notes/d.txt")
				},
				func() {
					fs.WriteFile("docs/a.txt", []byte("rewritten entirely omega"))
					fs.WriteFile("notes/d.txt", []byte("epsilon returns"))
				},
				func() {
					fs.Remove("docs/b.txt")
					fs.WriteFile("deep/nested/e.txt", []byte("brand new beta"))
				},
			}
			queries := []string{
				"alpha", "beta", "omega", "-alpha", "alpha OR epsilon",
				"beta -gamma", "(alpha OR beta) -omega", "epsilon",
			}
			for step, churn := range steps {
				churn()
				applyAll(t, fs, res)
				rebuilt := build(t, fs, shards)
				for _, q := range queries {
					got := searchSet(t, res.Files, res.Indexes(), q)
					want := searchSet(t, rebuilt.Files, rebuilt.Indexes(), q)
					if !reflect.DeepEqual(got, want) {
						t.Errorf("step %d %q: incremental %v, rebuild %v", step, q, got, want)
					}
				}
			}
		})
	}
}

func TestCommitTombstonesAndNewIDs(t *testing.T) {
	fs := seedFS(t)
	res := build(t, fs, 2)
	oldID, _ := res.Files.Lookup("notes/d.txt")

	fs.Remove("notes/d.txt")
	applyAll(t, fs, res)
	if res.Files.Live(oldID) {
		t.Fatal("deleted file still live")
	}

	fs.WriteFile("notes/d.txt", []byte("epsilon back"))
	applyAll(t, fs, res)
	newID, ok := res.Files.Lookup("notes/d.txt")
	if !ok || newID == oldID {
		t.Fatalf("recreated file: id=%d ok=%v oldID=%d (IDs must not be reused)", newID, ok, oldID)
	}
	if !res.Files.Live(newID) || res.Files.Live(oldID) {
		t.Error("liveness wrong after recreation")
	}
}

// TestCommitRoutesByFNVSplit: on a hash-split set every file's postings
// must stay in its ShardFor partition after updates.
func TestCommitRoutesByFNVSplit(t *testing.T) {
	fs := seedFS(t)
	res := build(t, fs, 3)
	fs.WriteFile("docs/a.txt", []byte("fresh content here"))
	fs.WriteFile("docs/new.txt", []byte("even fresher"))
	applyAll(t, fs, res)

	parts := res.Indexes()
	for i, ix := range parts {
		ix.Range(func(term string, l *postings.List) bool {
			for _, id := range l.IDs() {
				if owner := shard.ShardFor(id, len(parts)); owner != i {
					t.Errorf("term %q: file %d in partition %d, ShardFor says %d", term, id, i, owner)
				}
			}
			return true
		})
	}
}

func TestCommitDirtyTracking(t *testing.T) {
	fs := seedFS(t)
	res := build(t, fs, 4)
	fs.WriteFile("docs/a.txt", []byte("touched once"))

	cs, err := Diff(fs, ".", res.Files)
	if err != nil {
		t.Fatal(err)
	}
	plan := Prepare(fs, cs, res)
	dirty := map[int]bool{}
	plan.Commit(Target{
		Files:      res.Files,
		Partitions: res.Indexes(),
		OnDirty:    func(i int) { dirty[i] = true },
	})
	id, _ := res.Files.Lookup("docs/a.txt")
	owner := shard.ShardFor(id, 4)
	if !dirty[owner] {
		t.Errorf("owning partition %d not marked dirty: %v", owner, dirty)
	}
	if len(dirty) != 1 {
		t.Errorf("one-file modify dirtied %d partitions: %v", len(dirty), dirty)
	}
}

// TestCommitTouchesOnlyTheOwner: a one-file modify and a one-file delete
// reach the file's ShardFor owner and no other partition. Every other
// partition of the target is nil, so a commit that removed or joined
// anywhere else would panic.
func TestCommitTouchesOnlyTheOwner(t *testing.T) {
	for _, tc := range []struct {
		name   string
		change func(fs *vfs.MemFS) error
		want   Stats
	}{
		{"modify", func(fs *vfs.MemFS) error { return fs.WriteFile("docs/a.txt", []byte("alpha rewritten")) },
			Stats{Modified: 1, PostingsRemoved: 2, PostingsAdded: 2}},
		{"delete", func(fs *vfs.MemFS) error { return fs.Remove("docs/a.txt") },
			Stats{Deleted: 1, PostingsRemoved: 2}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const n = 4
			fs := seedFS(t)
			res := build(t, fs, n)
			if err := tc.change(fs); err != nil {
				t.Fatal(err)
			}
			id, _ := res.Files.Lookup("docs/a.txt")
			owner := shard.ShardFor(id, n)
			parts := make([]*index.Index, n)
			parts[owner] = res.Indexes()[owner]
			cs, err := Diff(fs, ".", res.Files)
			if err != nil {
				t.Fatal(err)
			}
			var dirty []int
			st := Prepare(fs, cs, res).Commit(Target{
				Files:      res.Files,
				Partitions: parts,
				OnDirty:    func(i int) { dirty = append(dirty, i) },
			})
			if st != tc.want {
				t.Errorf("stats = %+v, want %+v", st, tc.want)
			}
			if !reflect.DeepEqual(dirty, []int{owner}) {
				t.Errorf("dirtied %v, want only the owner %d", dirty, owner)
			}
		})
	}
}

func TestEmptyChangesetCommitIsNoop(t *testing.T) {
	fs := seedFS(t)
	res := build(t, fs, 2)
	termsBefore, postingsBefore := sizes(res)
	st := applyAll(t, fs, res)
	if st != (Stats{}) {
		t.Errorf("empty commit stats = %+v", st)
	}
	if terms, postings := sizes(res); terms != termsBefore || postings != postingsBefore {
		t.Errorf("no-op commit changed sizes: %d terms, %d postings vs %d, %d", terms, postings, termsBefore, postingsBefore)
	}
}

// flakyFS fails ReadFile for chosen paths, simulating files locked or
// unreadable at the instant an update runs.
type flakyFS struct {
	*vfs.MemFS
	mu   sync.Mutex
	fail map[string]bool
}

func (f *flakyFS) setFail(name string, bad bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.fail == nil {
		f.fail = make(map[string]bool)
	}
	f.fail[name] = bad
}

func (f *flakyFS) ReadFile(name string) ([]byte, error) {
	f.mu.Lock()
	bad := f.fail[name]
	f.mu.Unlock()
	if bad {
		return nil, fmt.Errorf("flaky: %s is locked", name)
	}
	return f.MemFS.ReadFile(name)
}

// TestFailedModifyExtractionRetries: a modified file whose re-extraction
// fails must stay pending — stale metadata, postings dropped — so the next
// Update retries it instead of silently losing it forever.
func TestFailedModifyExtractionRetries(t *testing.T) {
	mem := seedFS(t)
	fs := &flakyFS{MemFS: mem}
	res := build(t, fs, 2)

	mem.WriteFile("docs/a.txt", []byte("updated alpha content"))
	fs.setFail("docs/a.txt", true)

	cs, err := Diff(fs, ".", res.Files)
	if err != nil {
		t.Fatal(err)
	}
	plan := Prepare(fs, cs, res)
	if len(plan.Skipped) != 1 {
		t.Fatalf("skipped = %v, want the locked file", plan.Skipped)
	}
	st := plan.Commit(Target{Files: res.Files, Partitions: res.Indexes()})
	if st.Modified != 0 {
		t.Errorf("failed modify counted as applied: %+v", st)
	}
	// No postings, so no document length either — what a rebuild that
	// skipped the file records, and what the engine's NOT rule reads as a
	// term-free file.
	if id, _ := res.Files.Lookup("docs/a.txt"); res.Files.Tokens(id) != 0 {
		t.Errorf("failed modify left %d tokens on a file with no postings", res.Files.Tokens(id))
	}

	// The file's old postings are gone (its content is stale) but the
	// change is still pending: a fresh Diff must re-report it.
	cs2, err := Diff(fs, ".", res.Files)
	if err != nil {
		t.Fatal(err)
	}
	if got := opsByPath(cs2); got["docs/a.txt"] != OpModify || len(got) != 1 {
		t.Fatalf("after failed extraction diff = %v, want pending modify", got)
	}

	// The lock clears; the retry must converge with a rebuild.
	fs.setFail("docs/a.txt", false)
	applyAll(t, fs, res)
	rebuilt := build(t, mem, 2)
	for _, q := range []string{"alpha", "updated", "-alpha"} {
		got := searchSet(t, res.Files, res.Indexes(), q)
		want := searchSet(t, rebuilt.Files, rebuilt.Indexes(), q)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%q after retry: %v, want %v", q, got, want)
		}
	}
}

// TestFailedAddExtractionRetries: an added file whose extraction fails is
// not registered, so the next Update sees it as still-new and retries.
func TestFailedAddExtractionRetries(t *testing.T) {
	mem := seedFS(t)
	fs := &flakyFS{MemFS: mem}
	res := build(t, fs, 2)

	mem.WriteFile("docs/new.txt", []byte("omega content"))
	fs.setFail("docs/new.txt", true)
	cs, _ := Diff(fs, ".", res.Files)
	plan := Prepare(fs, cs, res)
	plan.Commit(Target{Files: res.Files, Partitions: res.Indexes()})
	if _, ok := res.Files.Lookup("docs/new.txt"); ok {
		t.Fatal("failed add was registered anyway")
	}

	fs.setFail("docs/new.txt", false)
	st := applyAll(t, fs, res)
	if st.Added != 1 {
		t.Fatalf("retry stats = %+v", st)
	}
	if _, ok := res.Files.Lookup("docs/new.txt"); !ok {
		t.Error("retried add still missing")
	}
}

// TestCommitIsIdempotent: re-applying a changeset (a retry, or a stale
// diff) must not duplicate file-table entries or postings.
func TestCommitIsIdempotent(t *testing.T) {
	fs := seedFS(t)
	res := build(t, fs, 2)
	fs.WriteFile("docs/new.txt", []byte("zeta fresh"))
	fs.WriteFile("docs/a.txt", []byte("alpha edited"))
	fs.Remove("notes/d.txt")

	cs, err := Diff(fs, ".", res.Files)
	if err != nil {
		t.Fatal(err)
	}
	apply := func() Stats {
		plan := Prepare(fs, cs, res)
		return plan.Commit(Target{Files: res.Files, Partitions: res.Indexes()})
	}
	apply()
	filesAfterOnce := res.Files.LiveCount()
	_, postingsAfterOnce := sizes(res)

	st := apply() // same changeset again
	if st.Added != 0 {
		t.Errorf("second apply re-added files: %+v", st)
	}
	if got := res.Files.LiveCount(); got != filesAfterOnce {
		t.Errorf("live files %d after double apply, want %d", got, filesAfterOnce)
	}
	if _, got := sizes(res); got != postingsAfterOnce {
		t.Errorf("postings %d after double apply, want %d", got, postingsAfterOnce)
	}
	// And the result still matches a rebuild.
	rebuilt := build(t, fs, 2)
	for _, q := range []string{"alpha", "zeta", "-epsilon"} {
		got := searchSet(t, res.Files, res.Indexes(), q)
		want := searchSet(t, rebuilt.Files, rebuilt.Indexes(), q)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%q after double apply: %v, want %v", q, got, want)
		}
	}
}
