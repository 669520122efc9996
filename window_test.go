package desksearch

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"desksearch/internal/index"
	"desksearch/internal/postings"
	"desksearch/internal/vfs"
)

// windowCorpus writes 400 short files and one of 3 000 tokens. "common"
// occurs once in every file and "often" one to three times, so both have
// df > 128 (a skip table), the first a boolean frequency section and the
// second a counted one; the rest draw from forty words. It returns each
// path's token count.
func windowCorpus(t *testing.T) (*vfs.MemFS, map[string]int) {
	t.Helper()
	rng := rand.New(rand.NewSource(30))
	fs := vfs.NewMemFS()
	lengths := map[string]int{}
	write := func(name string, words []string) {
		if err := fs.WriteFile(name, []byte(strings.Join(words, " "))); err != nil {
			t.Fatal(err)
		}
		lengths[name] = len(words)
	}
	word := func() string { return fmt.Sprintf("word%02d", rng.Intn(40)) }
	for i := 0; i < 400; i++ {
		words := []string{"common"}
		for n := 1 + rng.Intn(3); n > 0; n-- {
			words = append(words, "often")
		}
		for n := 3 + rng.Intn(30); n > 0; n-- {
			words = append(words, word())
		}
		rng.Shuffle(len(words), func(a, b int) { words[a], words[b] = words[b], words[a] })
		write(fmt.Sprintf("d%d/f%03d.txt", i%4, i), words)
	}
	long := make([]string, 3000)
	for i := range long {
		long[i] = word()
	}
	write("long.txt", long)
	return fs, lengths
}

// windowHit is one Window emission, located by file rather than by index.
type windowHit struct {
	file postings.FileID
	term string
	pos  uint32
}

func sortWindowHits(hs []windowHit) {
	slices.SortFunc(hs, func(a, b windowHit) int {
		if a.file != b.file {
			return int(a.file) - int(b.file)
		}
		if a.pos != b.pos {
			if a.pos < b.pos {
				return -1
			}
			return 1
		}
		return strings.Compare(a.term, b.term)
	})
}

// naiveWindow is Window's oracle: every dictionary term's full list, read
// through Lookup and filtered by file and window.
func naiveWindow(p index.Partition, files []postings.FileID, lo, hi []uint32) []windowHit {
	var out []windowHit
	w := p.TermsFrom("")
	for term, _, ok := w.Next(); ok; term, _, ok = w.Next() {
		l := p.Lookup(term)
		for i, f := range files {
			k := slices.Index(l.IDs(), f)
			if k < 0 {
				continue
			}
			for _, pos := range l.PositionsAt(k) {
				if lo[i] <= pos && pos <= hi[i] {
					out = append(out, windowHit{f, term, pos})
				}
			}
		}
	}
	sortWindowHits(out)
	return out
}

// TestWindowMatchesNaiveOracle holds every partition's Window, on each
// origin of a catalog, to the naive oracle as a multiset of (file, term,
// position), and to its promise of ascending terms. Every file of the
// corpus is handed to every partition, so half of them are absent from
// the one asked, and the windows include position 0, windows past a
// file's last token, windows entirely past it, the middle of the long
// file and the top of the position range.
func TestWindowMatchesNaiveOracle(t *testing.T) {
	fs, lengths := windowCorpus(t)
	opt := Options{Shards: 2, Positions: true}
	built, err := IndexFS(fs, ".", opt)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := built.SaveDir(dir); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadDir(dir, opt)
	if err != nil {
		t.Fatal(err)
	}
	opened, err := OpenDir(dir, Options{Positions: true, BlockCacheBytes: 4 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer opened.Close()

	table := built.result.Files
	var files []postings.FileID
	var lo, hi []uint32
	for id := 0; id < table.Len(); id++ {
		n := uint32(lengths[table.Path(postings.FileID(id))])
		var a, b uint32
		switch {
		case n == 3000:
			a, b = 1490, 1510
		case id%5 == 0:
			a, b = 0, 6
		case id%5 == 1:
			a, b = n-3, n+20
		case id%5 == 2:
			a, b = n+1, n+100
		case id%5 == 3:
			a, b = math.MaxUint32-4, math.MaxUint32
		default:
			a, b = n/2, n/2+10
		}
		files, lo, hi = append(files, postings.FileID(id)), append(lo, a), append(hi, b)
	}

	for _, c := range []struct {
		name string
		cat  *Catalog
	}{{"IndexFS", built}, {"LoadDir", loaded}, {"OpenDir", opened}} {
		var parts []index.Partition
		c.cat.engine.View(func() { parts = c.cat.partitionsLocked() })
		total := 0
		for p, part := range parts {
			if df := part.DocFreq("often"); df <= 128 {
				t.Fatalf("%s partition %d: \"often\" has df %d, no skip table", c.name, p, df)
			}
			var got []windowHit
			prev := ""
			part.Window(files, lo, hi, func(i int, term string, pos uint32) {
				if term < prev {
					t.Fatalf("%s partition %d: term %q after %q", c.name, p, term, prev)
				}
				prev = term
				got = append(got, windowHit{files[i], term, pos})
			})
			sortWindowHits(got)
			want := naiveWindow(part, files, lo, hi)
			if !slices.Equal(got, want) {
				t.Fatalf("%s partition %d: Window emitted %d occurrences, the oracle %d", c.name, p, len(got), len(want))
			}
			total += len(got)
		}
		if total < 1000 {
			t.Fatalf("%s: %d occurrences in all windows; the comparison is nearly vacuous", c.name, total)
		}
	}
	if n := opened.SegmentCorruptions(); n != 0 {
		t.Fatalf("clean segments reported %d corruptions", n)
	}
}

// TestSnippetPageDecodesOnlyAnchors holds a snippet page to decoding no
// extra blocks, as a count: after a page without snippets, asking for the
// same page's snippets decodes and caches no more than looking up the
// query's own terms on every partition would. The window pass decodes
// nothing and leaves the block cache alone.
func TestSnippetPageDecodesOnlyAnchors(t *testing.T) {
	withSnippets, dir := savedLazy(t, 200, 3)
	lookups, err := OpenDir(dir, Options{Positions: true})
	if err != nil {
		t.Fatal(err)
	}
	defer lookups.Close()

	q := Query{Text: "milk OR budget", Ranking: RankBM25, Limit: 10}
	for _, c := range []*Catalog{withSnippets, lookups} {
		if _, err := c.Query(context.Background(), q); err != nil {
			t.Fatal(err)
		}
	}
	q.Snippets = true
	resp, err := withSnippets.Query(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Hits) == 0 || resp.Hits[0].Snippet == nil {
		t.Fatalf("no snippet on the page: %+v", resp.Hits)
	}
	for _, r := range lookups.lazy.Readers() {
		r.Lookup("milk")
		r.Lookup("budget")
	}

	blocks, positions := lazyDecodes(withSnippets)
	boundBlocks, boundPositions := lazyDecodes(lookups)
	if positions == 0 {
		t.Fatal("the snippet page decoded no positions; its anchors went unread")
	}
	if blocks > boundBlocks || positions > boundPositions {
		t.Fatalf("the snippet page decoded %d blocks (%d with positions), the query's own lookups %d (%d)",
			blocks, positions, boundBlocks, boundPositions)
	}
	_, used, _ := withSnippets.BlockCache()
	_, bound, _ := lookups.BlockCache()
	if used > bound {
		t.Fatalf("the snippet page left %d cached bytes, the query's own lookups %d", used, bound)
	}
}
