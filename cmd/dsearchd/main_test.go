package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
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
