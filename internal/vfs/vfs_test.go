package vfs

import (
	"bytes"
	"errors"
	"io"
	"io/fs"
	"maps"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"testing/fstest"
	"testing/quick"
)

var conformanceContent = map[string]string{
	"a.txt":              "alpha file",
	"docs/b.txt":         "bravo file",
	"docs/c.txt":         "charlie file",
	"docs/deep/d.txt":    "delta",
	"empty.txt":          "",
	"docs/deep/e/f.txt":  "foxtrot",
	"zzz/last-entry.txt": "zulu",
}

// copying hides the no-copy ReadFile of a MemFS from fstest.TestFS, which
// writes into what ReadFile returns; TestMemFSReadFileShares pins the
// sharing itself.
type copying struct{ *MemFS }

func (c copying) ReadFile(name string) ([]byte, error) {
	data, err := c.MemFS.ReadFile(name)
	return bytes.Clone(data), err
}

// TestFSConformance holds a MemFS and the host file system (os.DirFS)
// with the same content to fstest.TestFS and to the same answers.
func TestFSConformance(t *testing.T) {
	mem := NewMemFS()
	host := t.TempDir()
	for name, content := range conformanceContent {
		if err := mem.WriteFile(name, []byte(content)); err != nil {
			t.Fatalf("WriteFile(%q): %v", name, err)
		}
		p := filepath.Join(host, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for name, fsys := range map[string]fs.FS{"MemFS": copying{mem}, "OSFS": os.DirFS(host)} {
		t.Run(name, func(t *testing.T) {
			if err := fstest.TestFS(fsys, slices.Sorted(maps.Keys(conformanceContent))...); err != nil {
				t.Fatal(err)
			}

			// ReadDir is sorted and complete, with sizes.
			entries, err := fs.ReadDir(fsys, "docs")
			if err != nil {
				t.Fatal(err)
			}
			var names []string
			for _, e := range entries {
				names = append(names, e.Name())
				info, err := e.Info()
				if err != nil {
					t.Fatal(err)
				}
				if e.Name() == "deep" && !e.IsDir() {
					t.Error("deep should be a directory")
				}
				if e.Name() == "b.txt" && (info.Size() != int64(len("bravo file")) || !e.Type().IsRegular()) {
					t.Errorf("b.txt: size %d, type %v", info.Size(), e.Type())
				}
			}
			if want := []string{"b.txt", "c.txt", "deep"}; !reflect.DeepEqual(names, want) {
				t.Errorf("ReadDir(docs) names = %v, want %v", names, want)
			}
			if root, err := fs.ReadDir(fsys, "."); err != nil || len(root) != 4 { // a.txt, docs, empty.txt, zzz
				t.Errorf("root has %d entries: %v", len(root), err)
			}

			st, err := fs.Stat(fsys, "docs/deep/d.txt")
			if err != nil || st.IsDir() || st.Size() != 5 || st.Name() != "d.txt" {
				t.Errorf("Stat = %v, %v", st, err)
			}

			// Missing files match fs.ErrNotExist.
			if _, err := fs.ReadFile(fsys, "nope.txt"); !errors.Is(err, fs.ErrNotExist) {
				t.Errorf("ReadFile(missing) err = %v", err)
			}
			if _, err := fsys.Open("docs/missing"); !errors.Is(err, fs.ErrNotExist) {
				t.Errorf("Open(missing) err = %v", err)
			}
			if _, err := fs.Stat(fsys, "missing/deep"); !errors.Is(err, fs.ErrNotExist) {
				t.Errorf("Stat(missing) err = %v", err)
			}
		})
	}
}

// TestOSFSRejectsEscape: a MemFS, like the host file system behind
// os.DirFS, refuses a path that climbs above its root.
func TestOSFSRejectsEscape(t *testing.T) {
	host := t.TempDir()
	if err := os.WriteFile(filepath.Join(filepath.Dir(host), "outside.txt"), []byte("secret"), 0o644); err != nil {
		t.Fatal(err)
	}
	mem := NewMemFS()
	mem.WriteFile("outside.txt", []byte("secret"))
	for name, fsys := range map[string]fs.FS{"MemFS": mem, "OSFS": os.DirFS(host)} {
		for _, bad := range []string{"../outside.txt", "/outside.txt", "docs/../../outside.txt"} {
			if _, err := fs.ReadFile(fsys, bad); err == nil {
				t.Errorf("%s: ReadFile(%q) escaped the root", name, bad)
			}
		}
	}
}

// TestSplitPathNormalization: a MemFS takes names as io/fs spells them —
// slash-separated, unrooted, no empty, "." or ".." element — and
// normalizes none, so each file has one name.
func TestSplitPathNormalization(t *testing.T) {
	tests := []struct {
		in   string
		want []string
		err  bool
	}{
		{".", nil, false},
		{"a", []string{"a"}, false},
		{"a/b", []string{"a", "b"}, false},
		{"", nil, true},
		{"/", nil, true},
		{"/a", nil, true},
		{"a//b", nil, true},
		{"./a/./b/", nil, true},
		{"a/../b", nil, true},
		{"..", nil, true},
	}
	for _, tc := range tests {
		got, err := split("open", tc.in)
		if tc.err != (err != nil) || !reflect.DeepEqual(got, tc.want) {
			t.Errorf("split(%q) = %q, %v; want %q, error %v", tc.in, got, err, tc.want, tc.err)
		}
		if err != nil && !errors.Is(err, fs.ErrInvalid) {
			t.Errorf("split(%q): error %v is not fs.ErrInvalid", tc.in, err)
		}
	}
}

// TestMemFSReadFileShares: ReadFile returns the stored bytes, not a copy,
// and a write stamps the file with the next counter value as its time.
func TestMemFSReadFileShares(t *testing.T) {
	fs := NewMemFS()
	data := []byte("shared")
	fs.WriteFile("a.txt", data)
	fs.WriteFile("d/b.txt", []byte("b"))
	got, err := fs.ReadFile("a.txt")
	if err != nil || &got[0] != &data[0] {
		t.Errorf("ReadFile copied or failed: %v", err)
	}
	fs.WriteFile("a.txt", data)
	for name, want := range map[string]int64{"a.txt": 3, "d/b.txt": 2} {
		if info, err := fs.Stat(name); err != nil || info.ModTime().UnixNano() != want {
			t.Errorf("%s: ModTime %v, %v; want stamp %d", name, info.ModTime().UnixNano(), err, want)
		}
	}
}

func TestMemFSReadDirOfFileFails(t *testing.T) {
	fs := NewMemFS()
	fs.WriteFile("f.txt", []byte("x"))
	if _, err := fs.ReadDir("f.txt"); err == nil {
		t.Error("ReadDir of a file should fail")
	}
	if _, err := fs.ReadFile("."); err == nil {
		t.Error("ReadFile(.) should fail")
	}
}

func TestMemFSWriteOverDirectoryFails(t *testing.T) {
	fs := NewMemFS()
	fs.WriteFile("dir/x", []byte("x"))
	if err := fs.WriteFile("dir", []byte("x")); err == nil {
		t.Error("WriteFile over directory should fail")
	}
	fs.WriteFile("file", []byte("x"))
	if err := fs.WriteFile("file/child", []byte("x")); err == nil {
		t.Error("WriteFile under a file should fail")
	}
	if err := fs.WriteFile("./a", []byte("x")); err == nil {
		t.Error("WriteFile of an invalid path should fail")
	}
}

// Property: MemFS behaves like a map from path to content for
// write-then-read sequences, and a write fails exactly when it would put a
// file under a file or over a directory.
func TestMemFSQuickWriteRead(t *testing.T) {
	names := []string{"a", "b/c", "b/d", "e/f", "e/f/g"}
	type op struct {
		Name    uint8
		Content []byte
	}
	if err := quick.Check(func(ops []op) bool {
		mem := NewMemFS()
		model := map[string][]byte{}
		for _, o := range ops {
			name := names[int(o.Name)%len(names)]
			conflict := false
			for held := range model {
				conflict = conflict || strings.HasPrefix(held, name+"/") || strings.HasPrefix(name, held+"/")
			}
			if err := mem.WriteFile(name, o.Content); (err != nil) != conflict {
				return false
			}
			if !conflict {
				model[name] = o.Content
			}
		}
		for name, content := range model {
			got, err := mem.ReadFile(name)
			if err != nil || !bytes.Equal(got, content) {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestMemFSConcurrentReads(t *testing.T) {
	fs := NewMemFS()
	const files = 200
	for i := 0; i < files; i++ {
		fs.WriteFile(filepath.Join("dir", string(rune('a'+i%26)), "f"+string(rune('0'+i%10))+".txt"), []byte("content"))
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				if _, err := fs.ReadDir("dir"); err != nil {
					errs <- err
					return
				}
				f, err := fs.Open("dir/a/f0.txt")
				if err == nil {
					_, err = io.ReadAll(f)
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
