package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestCheckSaveTarget: a -save path that is missing or a directory, or a
// link to one, is accepted; a regular file is refused with an error
// naming the path.
func TestCheckSaveTarget(t *testing.T) {
	dir := t.TempDir()
	file := filepath.Join(dir, "index.dsix")
	if err := os.WriteFile(file, []byte("DSIX"), 0o644); err != nil {
		t.Fatal(err)
	}
	link := filepath.Join(dir, "link")
	if err := os.Symlink(dir, link); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name, path string
		ok         bool
	}{
		{"missing path", filepath.Join(dir, "new"), true},
		{"directory", dir, true},
		{"regular file", file, false},
		{"symlink to a directory", link, true},
	} {
		err := checkSaveTarget(tc.path)
		if tc.ok && err != nil {
			t.Errorf("%s: checkSaveTarget(%q) = %v, want nil", tc.name, tc.path, err)
		}
		if !tc.ok && (err == nil || !strings.Contains(err.Error(), tc.path)) {
			t.Errorf("%s: checkSaveTarget(%q) = %v, want an error naming the path", tc.name, tc.path, err)
		}
	}
}
