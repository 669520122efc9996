package core

import (
	"errors"
	"io/fs"
	"reflect"
	"testing"
	"testing/fstest"
	"time"

	"desksearch/internal/corpus"
	"desksearch/internal/vfs"
)

// listTree is a small tree with nested, sibling and empty directories, as
// an fstest.MapFS whose files carry their size as their time.
func listTree() fstest.MapFS {
	tree := fstest.MapFS{"empty-dir": {Mode: fs.ModeDir}}
	for name, size := range map[string]int{
		"a.txt":           5,
		"docs/b.txt":      10,
		"docs/c.txt":      15,
		"docs/deep/d.txt": 20,
		"src/e.go":        25,
		"zz/f.txt":        30,
	} {
		tree[name] = &fstest.MapFile{Data: make([]byte, size), ModTime: time.Unix(0, int64(size))}
	}
	return tree
}

func TestListFindsEverything(t *testing.T) {
	files, err := ListFiles(listTree(), ".")
	if err != nil {
		t.Fatal(err)
	}
	want := []FileRef{
		{Path: "a.txt", Size: 5, ModTime: 5},
		{Path: "docs/b.txt", Size: 10, ModTime: 10},
		{Path: "docs/c.txt", Size: 15, ModTime: 15},
		{Path: "docs/deep/d.txt", Size: 20, ModTime: 20},
		{Path: "src/e.go", Size: 25, ModTime: 25},
		{Path: "zz/f.txt", Size: 30, ModTime: 30},
	}
	if !reflect.DeepEqual(files, want) {
		t.Errorf("ListFiles = %+v, want %+v", files, want)
	}
}

func TestListSubtree(t *testing.T) {
	files, err := ListFiles(listTree(), "docs")
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

// TestListDeterministic: a MemFS and an fstest.MapFS holding the same
// tree list it alike, and twice alike, whatever order it was written in.
func TestListDeterministic(t *testing.T) {
	tree := listTree()
	mem := vfs.NewMemFS()
	for name, f := range tree {
		if !f.Mode.IsDir() {
			if err := mem.WriteFile(name, f.Data); err != nil {
				t.Fatal(err)
			}
		}
	}
	a, _ := ListFiles(tree, ".")
	b, _ := ListFiles(mem, ".")
	c, _ := ListFiles(mem, ".")
	paths := func(refs []FileRef) []string {
		var out []string
		for _, r := range refs {
			out = append(out, r.Path)
		}
		return out
	}
	if !reflect.DeepEqual(paths(a), paths(b)) || !reflect.DeepEqual(b, c) {
		t.Errorf("ListFiles not deterministic: %v, %v, %v", a, b, c)
	}
}

func TestListMissingRoot(t *testing.T) {
	if _, err := ListFiles(listTree(), "no-such-dir"); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("err = %v", err)
	}
}

func TestListOnCorpusCountsMatchSpec(t *testing.T) {
	mem := vfs.NewMemFS()
	stats, err := corpus.Generate(corpus.PaperSpec().Scale(1.0/128), mem)
	if err != nil {
		t.Fatal(err)
	}
	files, err := ListFiles(mem, ".")
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != len(stats.Files) {
		t.Errorf("walk found %d files, corpus wrote %d", len(files), len(stats.Files))
	}
}

func BenchmarkListSequential(b *testing.B) {
	mem := vfs.NewMemFS()
	spec := corpus.PaperSpec().Scale(1.0 / 64)
	spec.TotalBytes = 1 << 20 // metadata walk: sizes don't matter
	if _, err := corpus.Generate(spec, mem); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ListFiles(mem, "."); err != nil {
			b.Fatal(err)
		}
	}
}
