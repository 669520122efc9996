package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"desksearch"
)

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
	if !rebuilt.Positional() || rebuilt.Indices() != 4 {
		t.Errorf("rebuild: positional %v, %d shards; want positional, 4 shards", rebuilt.Positional(), rebuilt.Indices())
	}
	// An explicit -shards count wins over the loaded one.
	if got := rebuildOptions(loaded, desksearch.Options{Shards: 2}).Shards; got != 2 {
		t.Errorf("rebuild with -shards 2: %d shards", got)
	}
}

// TestCheckCeilings: a negative -timeout or -max-limit would fail every
// request, so startup refuses it, naming the flag; 0 means the default.
func TestCheckCeilings(t *testing.T) {
	for _, tc := range []struct {
		timeout  time.Duration
		maxLimit int
		want     string // a substring of the error; "" for none
	}{
		{10 * time.Second, 1000, ""},
		{0, 0, ""},
		{time.Nanosecond, 1, ""},
		{-time.Second, 1000, "-timeout -1s"},
		{-time.Nanosecond, 0, "-timeout -1ns"},
		{10 * time.Second, -5, "-max-limit -5"},
		{0, -1, "-max-limit -1"},
		{-time.Second, -5, "-timeout"},
	} {
		err := checkCeilings(tc.timeout, tc.maxLimit)
		if tc.want == "" && err != nil || tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)) {
			t.Errorf("checkCeilings(%s, %d) = %v, want an error containing %q (\"\" for none)", tc.timeout, tc.maxLimit, err, tc.want)
		}
	}
}
