package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestCheckSaveDir: -save names a directory, new or existing; an existing
// regular file there is refused with a message naming the directory form.
func TestCheckSaveDir(t *testing.T) {
	dir := t.TempDir()
	file := filepath.Join(dir, "old.idx")
	if err := os.WriteFile(file, []byte("DSIX"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := checkSaveDir(file); err == nil || !strings.Contains(err.Error(), "directory") {
		t.Errorf("checkSaveDir(file) = %v, want an error naming the directory form", err)
	}
	for _, ok := range []string{"", dir, filepath.Join(dir, "new")} {
		if err := checkSaveDir(ok); err != nil {
			t.Errorf("checkSaveDir(%q) = %v, want nil", ok, err)
		}
	}
}
