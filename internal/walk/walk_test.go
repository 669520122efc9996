package walk

import (
	"errors"
	"reflect"
	"testing"

	"desksearch/internal/corpus"
	"desksearch/internal/vfs"
)

func buildTree(t *testing.T) *vfs.MemFS {
	t.Helper()
	fs := vfs.NewMemFS()
	files := map[string]int{
		"a.txt":           5,
		"docs/b.txt":      10,
		"docs/c.txt":      15,
		"docs/deep/d.txt": 20,
		"src/e.go":        25,
		"zz/f.txt":        30,
	}
	for name, size := range files {
		if err := fs.WriteFile(name, make([]byte, size)); err != nil {
			t.Fatal(err)
		}
	}
	// An empty directory must be traversed without error.
	if err := fs.MkdirAll("empty-dir"); err != nil {
		t.Fatal(err)
	}
	return fs
}

func TestListFindsEverything(t *testing.T) {
	files, err := List(buildTree(t), ".")
	if err != nil {
		t.Fatal(err)
	}
	want := []FileRef{
		{Path: "a.txt", Size: 5},
		{Path: "docs/b.txt", Size: 10},
		{Path: "docs/c.txt", Size: 15},
		{Path: "docs/deep/d.txt", Size: 20},
		{Path: "src/e.go", Size: 25},
		{Path: "zz/f.txt", Size: 30},
	}
	// Modification stamps depend on map iteration order during tree
	// construction; assert they are set, then compare the rest exactly.
	stripped := append([]FileRef(nil), files...)
	for i := range stripped {
		if stripped[i].ModTime == 0 {
			t.Errorf("%s: ModTime not populated", stripped[i].Path)
		}
		stripped[i].ModTime = 0
	}
	if !reflect.DeepEqual(stripped, want) {
		t.Errorf("List = %+v, want %+v", stripped, want)
	}
}

func TestListSubtree(t *testing.T) {
	files, err := List(buildTree(t), "docs")
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 3 {
		t.Fatalf("subtree list = %+v", files)
	}
	for _, f := range files {
		if f.Path[:5] != "docs/" {
			t.Errorf("file outside subtree: %s", f.Path)
		}
	}
}

func TestListDeterministic(t *testing.T) {
	fs := buildTree(t)
	a, _ := List(fs, ".")
	b, _ := List(fs, ".")
	if !reflect.DeepEqual(a, b) {
		t.Error("List not deterministic")
	}
}

func TestListMissingRoot(t *testing.T) {
	if _, err := List(buildTree(t), "no-such-dir"); !errors.Is(err, vfs.ErrNotExist) {
		t.Errorf("err = %v", err)
	}
}

func TestListOnCorpusCountsMatchSpec(t *testing.T) {
	fs := vfs.NewMemFS()
	spec := corpus.SmallSpec()
	stats, err := corpus.Generate(spec, fs)
	if err != nil {
		t.Fatal(err)
	}
	files, err := List(fs, ".")
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != len(stats.Files) {
		t.Errorf("walk found %d files, corpus wrote %d", len(files), len(stats.Files))
	}
}

func BenchmarkListSequential(b *testing.B) {
	fs := vfs.NewMemFS()
	spec := corpus.PaperSpec().Scale(1.0 / 64)
	spec.TotalBytes = 1 << 20 // metadata walk: sizes don't matter
	if _, err := corpus.Generate(spec, fs); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := List(fs, "."); err != nil {
			b.Fatal(err)
		}
	}
}
