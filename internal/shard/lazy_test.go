package shard

import (
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"desksearch/internal/index"
)

// TestOpenFailureNamesFirstSegment: with segments 1 and 3 of a 4-shard
// directory corrupt, every open names segment 1 however the concurrent
// opens finish, and a failed OpenDir leaves none of the directory's
// segments mapped — the readers it opened before the failure are closed.
func TestOpenFailureNamesFirstSegment(t *testing.T) {
	dir := savedDir(t)
	for _, i := range []int{1, 3} {
		corruptFile(t, filepath.Join(dir, SegmentName(i)), func(b []byte) []byte {
			b[index.HeaderLen+8] ^= 0xff // the dictionary's first byte, behind the header and its length
			return b
		})
	}
	opens := map[string]func() error{
		"OpenDir": func() error {
			_, err := OpenDir(dir, 0)
			return err
		},
		"OpenDirShards([1 3])": func() error {
			_, err := OpenDirShards(dir, 0, []int{1, 3})
			return err
		},
		"LoadDir": func() error {
			_, err := LoadDir(dir)
			return err
		},
	}
	for name, open := range opens {
		for try := range 20 {
			err := open()
			if err == nil || !strings.Contains(err.Error(), SegmentName(1)) {
				t.Fatalf("%s, attempt %d: got %v, want an error naming %s", name, try, err, SegmentName(1))
			}
		}
	}
	if runtime.GOOS != "linux" {
		return
	}
	maps, err := os.ReadFile("/proc/self/maps")
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(maps), "\n") {
		if strings.Contains(line, dir) {
			t.Errorf("a failed open left a segment mapped: %s", line)
		}
	}
}
