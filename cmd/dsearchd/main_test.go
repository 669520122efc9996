package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"desksearch"
)

// TestCheckIndexDir: -index names a directory; a regular file there — a
// single-file index an earlier version wrote, say — is refused, before any
// open path reads it, with a message naming the directory form.
func TestCheckIndexDir(t *testing.T) {
	dir := t.TempDir()
	file := filepath.Join(dir, "old.idx")
	if err := os.WriteFile(file, []byte("DSIX\x09\x00\x00\x00"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := checkIndexDir(file); err == nil || !strings.Contains(err.Error(), "directory") {
		t.Errorf("checkIndexDir(file) = %v, want an error naming the directory form", err)
	}
	// Unset, a directory, or a path that does not exist (LoadDir's error to
	// report) are not usage errors.
	for _, ok := range []string{"", dir, filepath.Join(dir, "missing")} {
		if err := checkIndexDir(ok); err != nil {
			t.Errorf("checkIndexDir(%q) = %v, want nil", ok, err)
		}
	}
}

// TestRebuildKeepsLoadedShape: `dsearchd -index DIR -root ROOT` has no
// -positions flag, so /reload?mode=full must take positions and the shard
// count from the loaded catalog, or the rebuild drops phrases, snippets
// and shards.
func TestRebuildKeepsLoadedShape(t *testing.T) {
	root := t.TempDir()
	for name, text := range map[string]string{
		"a.txt": "quarterly report draft", "b.txt": "annual report", "c.txt": "draft minutes",
		"d.txt": "report forecast", "e.txt": "budget review", "f.txt": "quarterly budget",
	} {
		if err := os.WriteFile(filepath.Join(root, name), []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	built, err := desksearch.IndexDir(root, desksearch.Options{Positions: true, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := built.SaveDir(dir); err != nil {
		t.Fatal(err)
	}
	loaded, err := loadIndex(dir, false, nil, desksearch.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rebuilt, err := desksearch.IndexDir(root, rebuildOptions(loaded, desksearch.Options{}))
	if err != nil {
		t.Fatal(err)
	}
	if !rebuilt.Positional() || rebuilt.Shards() != 4 {
		t.Errorf("rebuild: positional %v, %d shards; want positional, 4 shards", rebuilt.Positional(), rebuilt.Shards())
	}
	// An explicit -shards count wins over the loaded one.
	if got := rebuildOptions(loaded, desksearch.Options{Shards: 2}).Shards; got != 2 {
		t.Errorf("rebuild with -shards 2: %d shards", got)
	}
}
