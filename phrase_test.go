package desksearch

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"desksearch/internal/core"
	"desksearch/internal/tokenize"
	"desksearch/internal/vfs"
)

// naivePhraseScan returns the files whose extracted token stream contains
// the phrase at consecutive positions — the specification the positional
// index must reproduce exactly. It re-tokenizes from the file content (not
// the generator's word list) so the oracle and the index share one
// tokenizer and nothing else.
func naivePhraseScan(t *testing.T, fs *vfs.MemFS, phrase []string) []string {
	t.Helper()
	var out []string
	for _, ref := range mustList(t, fs) {
		data, err := fs.ReadFile(ref.Path)
		if err != nil {
			t.Fatal(err)
		}
		toks := tokenize.Terms(data)
		for i := 0; i+len(phrase) <= len(toks); i++ {
			match := true
			for k, w := range phrase {
				if toks[i+k] != w {
					match = false
					break
				}
			}
			if match {
				out = append(out, ref.Path)
				break
			}
		}
	}
	sort.Strings(out)
	return out
}

func queryPaths(t *testing.T, cat *Catalog, query string) []string {
	t.Helper()
	resp, err := cat.Query(context.Background(), Query{Text: query})
	if err != nil {
		t.Fatalf("%s: %v", query, err)
	}
	out := make([]string, len(resp.Hits))
	for i, h := range resp.Hits {
		out[i] = h.Path
	}
	sort.Strings(out)
	return out
}

func TestPhraseWithoutPositionsErrors(t *testing.T) {
	fs := vfs.NewMemFS()
	if err := fs.WriteFile("a.txt", []byte("annual report")); err != nil {
		t.Fatal(err)
	}
	cat, err := IndexFS(fs, ".", Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, err = cat.Query(context.Background(), Query{Text: `"annual report"`})
	if err == nil || !strings.Contains(err.Error(), "without positions") {
		t.Fatalf("phrase on non-positional catalog: err = %v", err)
	}
	// The error surfaces through Normalize-based paths (the daemon) too:
	// the request itself is valid, so it must normalize fine and fail only
	// at evaluation.
	if _, err := (Query{Text: `"annual report"`}).Normalize(); err != nil {
		t.Fatalf("phrase request failed to normalize: %v", err)
	}
}

// TestPositionsNotRetrofittedOnLoad pins the loaded-catalog policy: the
// segments' flags decide positional-ness in both directions, so
// passing Options.Positions when loading a non-positional catalog must
// not produce a half-positional index — updates keep extracting without
// positions, the catalog stays saveable/reloadable, and phrase queries
// keep failing with the clear error.
func TestPositionsNotRetrofittedOnLoad(t *testing.T) {
	fs := vfs.NewMemFS()
	for name, content := range map[string]string{
		"a.txt": "annual report one",
		"b.txt": "unrelated words here",
	} {
		if err := fs.WriteFile(name, []byte(content)); err != nil {
			t.Fatal(err)
		}
	}
	built, err := IndexFS(fs, ".", Options{}) // no positions
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := built.SaveDir(dir); err != nil {
		t.Fatal(err)
	}
	// Load with Positions erroneously enabled, then churn the tree through
	// an incremental update.
	cat, err := LoadDir(dir, Options{Positions: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFile("a.txt", []byte("annual report rewritten")); err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFile("c.txt", []byte("a brand new annual report")); err != nil {
		t.Fatal(err)
	}
	if _, err := cat.Update(fs, "."); err != nil {
		t.Fatal(err)
	}
	// The updated catalog must save and reload cleanly (the original bug
	// persisted a desynced file that failed to decode)...
	if err := cat.SaveDir(dir); err != nil {
		t.Fatal(err)
	}
	reloaded, err := LoadDir(dir)
	if err != nil {
		t.Fatalf("reloading the updated catalog: %v", err)
	}
	// ...answer term queries across old and new files...
	for _, c := range []*Catalog{cat, reloaded} {
		if got := queryPaths(t, c, "annual report"); !equalStrings(got, []string{"a.txt", "c.txt"}) {
			t.Fatalf("annual report → %v", got)
		}
	}
	// ...and still reject phrases, since nothing positional was built.
	if _, err := cat.Query(context.Background(), Query{Text: `"annual report"`}); err == nil ||
		!strings.Contains(err.Error(), "without positions") {
		t.Fatalf("phrase on retrofit-attempted catalog: err = %v", err)
	}
}

func mustList(t *testing.T, fs *vfs.MemFS) []core.FileRef {
	t.Helper()
	refs, err := core.ListFiles(fs, ".")
	if err != nil {
		t.Fatal(err)
	}
	return refs
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestPhraseWalkMatchesNaiveScanSkewed holds the rarest-term phrase walk
// to a naive scan on the inputs it is built for: one word is ~45% of all
// tokens and three files hold over a thousand of its positions each;
// phrases run 2–5 words, repeats ("hot hot", "hot alpha hot") included; a
// rare word opens files, so a non-first phrase word sits at position 0;
// and a word found only at the start of the first file and the end of the
// last puts candidates at both ends of every other list. Batch, sharded,
// LoadDir and OpenDir catalogs must all answer what the scan finds — the
// last with a block cache small enough that it keeps evicting.
func TestPhraseWalkMatchesNaiveScanSkewed(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	vocab := []string{"alpha", "beta", "gamma", "delta", "epsilon", "zeta"}
	const nFiles = 48
	fs := vfs.NewMemFS()
	tokens := make(map[string][]string, nFiles)
	names := make([]string, 0, nFiles)
	for f := 0; f < nFiles; f++ {
		n := 20 + rng.Intn(120)
		if f%16 == 5 {
			n = 3000
		}
		words := make([]string, n)
		for i := range words {
			if rng.Intn(100) < 45 {
				words[i] = "hot"
			} else {
				words[i] = vocab[rng.Intn(len(vocab))]
			}
		}
		switch {
		case f == 0:
			words[0], words[1] = "edge", "hot"
		case f == nFiles-1:
			words[n-2], words[n-1] = "hot", "edge"
		case f == 7:
			words[10], words[11] = "hot", "opener"
		case f%5 == 1:
			words[0] = "opener"
		}
		name := fmt.Sprintf("f%03d.txt", f) // walk order = FileID order
		if err := fs.WriteFile(name, []byte(strings.Join(words, " "))); err != nil {
			t.Fatal(err)
		}
		tokens[name] = words
		names = append(names, name)
	}

	batch, err := IndexFS(fs, ".", Options{Positions: true})
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := IndexFS(fs, ".", Options{Positions: true, Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := sharded.SaveDir(dir); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	opened, err := OpenDir(dir, Options{BlockCacheBytes: 4 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer opened.Close()
	cats := map[string]*Catalog{"batch": batch, "sharded": sharded, "LoadDir": loaded, "OpenDir": opened}

	phrases := [][]string{
		{"edge", "hot"}, {"hot", "edge"}, {"hot", "opener"}, {"opener", "hot"},
		{"hot", "hot"}, {"hot", "hot", "hot"}, {"hot", "alpha", "hot"},
		{"hot", "hot", "hot", "hot", "hot"}, {"alpha", "alpha"}, {"edge", "opener"},
	}
	for q := 0; q < 40; q++ { // sampled from the files: mostly matches
		words := tokens[names[rng.Intn(len(names))]]
		n := 2 + rng.Intn(4)
		start := rng.Intn(len(words) - n)
		phrases = append(phrases, words[start:start+n])
	}
	all := append([]string{"hot"}, vocab...)
	for q := 0; q < 10; q++ { // drawn from the vocabulary: mostly misses
		phrase := make([]string, 2+rng.Intn(4))
		for i := range phrase {
			phrase[i] = all[rng.Intn(len(all))]
		}
		phrases = append(phrases, phrase)
	}
	matched := 0
	for _, phrase := range phrases {
		query := `"` + strings.Join(phrase, " ") + `"`
		want := naivePhraseScan(t, fs, phrase)
		if len(want) > 0 {
			matched++
		}
		for kind, cat := range cats {
			if got := queryPaths(t, cat, query); !equalStrings(got, want) {
				t.Errorf("%s: %s → %v, want %v", kind, query, got, want)
			}
		}
	}
	if matched < len(phrases)/2 {
		t.Errorf("only %d of %d phrases match anywhere; the property needs matches to compare", matched, len(phrases))
	}

	// The OpenDir catalog's cache cannot keep what one phrase reads: the
	// same phrase again decodes its blocks again.
	before, _ := lazyDecodes(opened)
	queryPaths(t, opened, `"hot alpha"`)
	mid, _ := lazyDecodes(opened)
	queryPaths(t, opened, `"hot alpha"`)
	if after, _ := lazyDecodes(opened); mid == before || after == mid {
		t.Errorf("block decodes %d → %d → %d: the tight cache kept a phrase's blocks", before, mid, after)
	}
}
