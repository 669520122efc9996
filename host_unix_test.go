//go:build unix

package desksearch

import (
	"os"
	"path/filepath"
	"syscall"
	"testing"
	"time"
)

// within returns what f returns, failing the test if f errs or has not
// returned after ten seconds.
func within[T any](t *testing.T, what string, f func() (T, error)) T {
	t.Helper()
	type result struct {
		v   T
		err error
	}
	done := make(chan result, 1)
	go func() {
		v, err := f()
		done <- result{v, err}
	}()
	select {
	case r := <-done:
		if r.err != nil {
			t.Fatalf("%s: %v", what, r.err)
		}
		return r.v
	case <-time.After(10 * time.Second):
		t.Fatalf("%s still running after 10s", what)
	}
	var zero T
	return zero
}

// TestHostTreeIndexesRegularFilesOnly: a named pipe is not listed (reading
// one blocks until a writer comes), a symbolic link to a file is indexed
// as that file, and a link to a directory is not followed, so the build
// and an update return, index only what they can read and skip nothing.
func TestHostTreeIndexesRegularFilesOnly(t *testing.T) {
	dir := t.TempDir()
	writeHostFile(t, dir, "a.txt", "alpha report")
	writeHostFile(t, dir, "sub/b.txt", "bravo report")
	if err := syscall.Mkfifo(filepath.Join(dir, "pipe"), 0o644); err != nil {
		t.Skipf("no named pipes here: %v", err)
	}
	for link, target := range map[string]string{"link.txt": "a.txt", "subdir": "sub", "loop": "."} {
		if err := os.Symlink(target, filepath.Join(dir, link)); err != nil {
			t.Fatal(err)
		}
	}
	cat := within(t, "IndexDir", func() (*Catalog, error) { return IndexDir(dir, Options{}) })
	if s := cat.Stats(); s.Files != 3 || s.Skipped != 0 {
		t.Fatalf("IndexDir: %d files, %d skipped; want a.txt, link.txt and sub/b.txt, none skipped", s.Files, s.Skipped)
	}
	if got := queryPaths(t, cat, "report"); !equalStrings(got, []string{"a.txt", "link.txt", "sub/b.txt"}) {
		t.Fatalf("report → %v", got)
	}

	writeHostFile(t, dir, "sub/c.txt", "charlie report")
	st := within(t, "UpdateDir", func() (UpdateStats, error) { return cat.UpdateDir(dir) })
	if st.Added != 1 || st.Modified != 0 || st.Deleted != 0 || st.SkippedFiles != 0 {
		t.Fatalf("UpdateDir: %+v; want the one added file", st)
	}
	if s := cat.Stats(); s.Files != 4 || s.Skipped != 0 {
		t.Fatalf("after UpdateDir: %d files, %d skipped", s.Files, s.Skipped)
	}
}

// TestUpdateSeesSymlinkTargetChange: a linked file is recorded with its
// target's size and modification time, so an edit to the target, which
// leaves the link itself untouched, is an update of the link's file.
func TestUpdateSeesSymlinkTargetChange(t *testing.T) {
	base := t.TempDir()
	tree := filepath.Join(base, "tree")
	writeHostFile(t, tree, "plain.txt", "unrelated words")
	writeHostFile(t, base, "outside/target.txt", "original target")
	if err := os.Symlink(filepath.Join(base, "outside", "target.txt"), filepath.Join(tree, "link.txt")); err != nil {
		t.Fatal(err)
	}
	cat, err := IndexDir(tree, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := queryPaths(t, cat, "original"); !equalStrings(got, []string{"link.txt"}) {
		t.Fatalf("original → %v", got)
	}

	writeHostFile(t, base, "outside/target.txt", "the target grew a brand new word: zeppelin")
	st, err := cat.UpdateDir(tree)
	if err != nil {
		t.Fatal(err)
	}
	if st.Added != 0 || st.Modified != 1 || st.Deleted != 0 {
		t.Fatalf("UpdateDir: %+v; want link.txt modified", st)
	}
	if got := queryPaths(t, cat, "zeppelin"); !equalStrings(got, []string{"link.txt"}) {
		t.Errorf("zeppelin → %v", got)
	}
	if got := queryPaths(t, cat, "original"); len(got) != 0 {
		t.Errorf("original → %v after the target changed", got)
	}
}
