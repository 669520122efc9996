package desksearch

import (
	"context"
	"fmt"
	"io/fs"
	"strings"
	"testing"

	"desksearch/internal/index"
	"desksearch/internal/postings"
	"desksearch/internal/shard"
)

// openSubset opens a shard subset of dir or fails the test.
func openSubset(t *testing.T, dir string, ids []int, opt Options) *Catalog {
	t.Helper()
	cat, err := OpenDirShards(dir, ids, opt)
	if err != nil {
		t.Fatalf("OpenDirShards(%v): %v", ids, err)
	}
	t.Cleanup(func() { cat.Close() })
	return cat
}

// TestOpenDirShardsSubset pins the worker open path: a subset catalog
// reports its place in the directory's topology, serves exactly the
// documents that hash-route to its shards, and complementary subsets
// tile every query's result set — including NOT queries, whose
// complement universes are the subtle part of subset serving.
func TestOpenDirShardsSubset(t *testing.T) {
	fs := corpusFS(t, 120)
	built, err := IndexFS(fs, ".", Options{Positions: true, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := built.SaveDir(dir); err != nil {
		t.Fatal(err)
	}

	opt := Options{Positions: true, BlockCacheBytes: 1 << 20}
	whole, err := OpenDir(dir, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer whole.Close()
	// Deliberately interleaved subsets: global shard numbers must survive
	// the mapping to local partition indexes.
	subA := openSubset(t, dir, []int{0, 2}, opt)
	subB := openSubset(t, dir, []int{3, 1}, opt)

	if got := subA.PartitionIDs(); fmt.Sprint(got) != "[0 2]" {
		t.Fatalf("subA.PartitionIDs() = %v, want [0 2]", got)
	}
	if got := subB.PartitionIDs(); fmt.Sprint(got) != "[1 3]" {
		t.Fatalf("subB.PartitionIDs() = %v (ids normalize sorted), want [1 3]", got)
	}
	if subA.TotalShards() != 4 || subA.Indices() != 2 {
		t.Fatalf("subA topology = %d local of %d total, want 2 of 4", subA.Indices(), subA.TotalShards())
	}
	if whole.TotalShards() != 4 || whole.Indices() != 4 {
		t.Fatalf("whole topology = %d local of %d total, want 4 of 4", whole.Indices(), whole.TotalShards())
	}
	if budget, _, ok := subA.BlockCache(); !ok || budget != 1<<20 {
		t.Fatalf("subA.BlockCache() = %d, %v; want the configured 1MiB budget", budget, ok)
	}

	// Every query shape — NOT clauses and OR-of-NOT especially, which
	// depend on the subset universes — must tile: subset totals sum to the
	// whole's total and the subsets' hit sets are disjoint.
	queries := []Query{
		{Text: "report"},
		{Text: "quarterly report -draft"},
		{Text: "flour OR -report", Ranking: RankTF},
		{Text: "milk -pancake -allergy"},
		{Text: `"annual report"`, Ranking: RankBM25},
		{Text: "repor* -final", Ranking: RankCount},
	}
	for _, q := range queries {
		rw, err := whole.Query(context.Background(), q)
		if err != nil {
			t.Fatalf("%q whole: %v", q.Text, err)
		}
		ra, err := subA.Query(context.Background(), q)
		if err != nil {
			t.Fatalf("%q subA: %v", q.Text, err)
		}
		rb, err := subB.Query(context.Background(), q)
		if err != nil {
			t.Fatalf("%q subB: %v", q.Text, err)
		}
		if ra.Total+rb.Total != rw.Total {
			t.Fatalf("%q: subset totals %d+%d != whole %d", q.Text, ra.Total, rb.Total, rw.Total)
		}
		seen := make(map[string]bool)
		for _, h := range append(append([]Hit{}, ra.Hits...), rb.Hits...) {
			if seen[h.Path] {
				t.Fatalf("%q: %s served by both subsets", q.Text, h.Path)
			}
			seen[h.Path] = true
		}
	}
}

// TestGlobalDFShapeMismatch: a GlobalDF vector from a different query
// must be rejected, not silently mis-scored.
func TestGlobalDFShapeMismatch(t *testing.T) {
	fs := corpusFS(t, 40)
	cat, err := IndexFS(fs, ".", Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	df, err := cat.DocFreqs(context.Background(), Query{Text: "report budget"})
	if err != nil {
		t.Fatal(err)
	}
	_, err = cat.Query(context.Background(), Query{Text: "report", Ranking: RankBM25, GlobalDF: df})
	if err == nil {
		t.Fatal("mismatched GlobalDF shape was accepted")
	}
}

// saveUnrouted saves the files under fsys's root as a directory whose n
// partitions split the files by FileID mod n, not by shard.ShardFor: the
// shape of a directory saved from a replicated build before every build
// was hash-routed, where a replica held whatever files its updater took.
// It returns the directory and the saved file table.
func saveUnrouted(t *testing.T, fsys fs.FS, n int) (string, *index.FileTable) {
	t.Helper()
	seq, err := IndexFS(fsys, ".", Options{Extractors: 1})
	if err != nil {
		t.Fatal(err)
	}
	ix, files := seq.result.Set.Shards()[0], seq.result.Set.Files()
	parts := make([]*index.Index, n)
	for i := range parts {
		parts[i] = index.New(0)
	}
	w := ix.TermsFrom("")
	for term, _, ok := w.Next(); ok; term, _, ok = w.Next() {
		l := ix.Lookup(term)
		ids, counts := make([][]postings.FileID, n), make([][]uint32, n)
		for j, id := range l.IDs() {
			i := int(id) % n
			ids[i] = append(ids[i], id)
			counts[i] = append(counts[i], l.CountAt(j))
		}
		for i := range parts {
			parts[i].MergeTerm(term, postings.FromSortedIDCounts(ids[i], counts[i]))
		}
	}
	strays := 0
	for id := 0; id < files.Len(); id++ {
		if shard.ShardFor(postings.FileID(id), n) != id%n {
			strays++
		}
	}
	if strays == 0 {
		t.Fatal("the mod split coincides with shard.ShardFor")
	}
	dir := t.TempDir()
	if err := shard.SaveDir(dir, shard.New(files, parts)); err != nil {
		t.Fatal(err)
	}
	return dir, files
}

// TestOpenRefusesUnroutedDir: a directory whose segments split the files
// by another rule than shard.ShardFor (saveUnrouted) is refused by every
// open — LoadDir, OpenDir, and OpenDirShards of one segment holding a
// stray file — naming the segment and the file and saying to rebuild,
// because an update would look for a file's postings at its owner alone.
func TestOpenRefusesUnroutedDir(t *testing.T) {
	const n = 3
	dir, files := saveUnrouted(t, corpusFS(t, 60), n)
	// stray[i] is the first file segment i holds that ShardFor routes
	// elsewhere; a whole-directory open reports the lowest such segment.
	stray := map[int]postings.FileID{}
	first, last := n, -1
	for id := postings.FileID(0); int(id) < files.Len(); id++ {
		i := int(id) % n
		if _, ok := stray[i]; !ok && shard.ShardFor(id, n) != i {
			stray[i] = id
			first, last = min(first, i), max(last, i)
		}
	}
	if last < 0 {
		t.Fatal("no segment holds a stray file")
	}
	refused := func(label string, err error, i int) {
		t.Helper()
		if err == nil {
			t.Fatalf("%s opened an unrouted directory", label)
		}
		for _, want := range []string{shard.SegmentName(i), fmt.Sprintf("file ID %d ", stray[i]), "rebuild the index"} {
			if !strings.Contains(err.Error(), want) {
				t.Fatalf("%s: %v; want it to name %q", label, err, want)
			}
		}
	}
	_, err := LoadDir(dir)
	refused("LoadDir", err, first)
	lazy, err := OpenDir(dir)
	if err == nil {
		lazy.Close()
	}
	refused("OpenDir", err, first)
	sub, err := OpenDirShards(dir, []int{last})
	if err == nil {
		sub.Close()
	}
	refused(fmt.Sprintf("OpenDirShards(%d)", last), err, last)
}

// TestOpenDirShardsTermFreeFiles: a routed directory holding term-free
// files opens as one worker subset per segment. Each answers NOT for the
// documents it holds, and the worker serving shard 0 also for the
// term-free files, so together the subsets answer every negated query
// with exactly the whole directory's files and Total, each file once, and
// the same per-partition match counts.
func TestOpenDirShardsTermFreeFiles(t *testing.T) {
	fs := corpusFS(t, 90)
	termFree := []string{"dir9/empty.txt", "dir9/punctuation.txt", "dir9/blank.txt"}
	for i, body := range []string{"", "!!! --- ???", "\n\t \n"} {
		if err := fs.WriteFile(termFree[i], []byte(body)); err != nil {
			t.Fatal(err)
		}
	}
	built, err := IndexFS(fs, ".", Options{Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := built.SaveDir(dir); err != nil {
		t.Fatal(err)
	}
	whole, err := OpenDirShards(dir, nil)
	if err != nil {
		t.Fatalf("whole-directory open: %v", err)
	}
	defer whole.Close()
	var subsets []*Catalog
	for i := 0; i < whole.Indices(); i++ {
		subsets = append(subsets, openSubset(t, dir, []int{i}, Options{}))
	}

	for _, text := range []string{"-report", "flour OR -report", "-(quarterly report)"} {
		rw, err := whole.Query(context.Background(), Query{Text: text})
		if err != nil {
			t.Fatalf("%q whole: %v", text, err)
		}
		want := make(map[string]bool, len(rw.Hits))
		for _, h := range rw.Hits {
			want[h.Path] = true
		}
		for _, p := range termFree {
			if text != "flour OR -report" && !want[p] {
				t.Fatalf("%q: whole misses the term-free file %s", text, p)
			}
		}
		seen := make(map[string]bool)
		total := 0
		for _, sub := range subsets {
			rs, err := sub.Query(context.Background(), Query{Text: text})
			if err != nil {
				t.Fatalf("%q subset %v: %v", text, sub.PartitionIDs(), err)
			}
			total += rs.Total
			for _, h := range rs.Hits {
				if seen[h.Path] || !want[h.Path] {
					t.Fatalf("%q: subset %v serves %s (seen before %v, in the whole's answer %v)",
						text, sub.PartitionIDs(), h.Path, seen[h.Path], want[h.Path])
				}
				seen[h.Path] = true
			}
			for _, p := range rs.Partitions {
				global := sub.PartitionIDs()[p.Partition]
				if w := rw.Partitions[global].Matched; p.Matched != w {
					t.Fatalf("%q: shard %d matched %d in its subset, %d in the whole", text, global, p.Matched, w)
				}
			}
		}
		if total != rw.Total || len(seen) != len(want) {
			t.Fatalf("%q: subsets total %d over %d files, whole %d over %d", text, total, len(seen), rw.Total, len(want))
		}
	}
}

// TestOpenDirShardsValidation covers the subset argument contract.
func TestOpenDirShardsValidation(t *testing.T) {
	fs := corpusFS(t, 30)
	built, err := IndexFS(fs, ".", Options{Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := built.SaveDir(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenDirShards(dir, []int{3}); err == nil {
		t.Fatal("out-of-range shard accepted")
	}
	if _, err := OpenDirShards(dir, []int{-1}); err == nil {
		t.Fatal("negative shard accepted")
	}
	cat, err := OpenDirShards(dir, []int{2, 0, 2}) // duplicates collapse
	if err != nil {
		t.Fatal(err)
	}
	defer cat.Close()
	if got := cat.PartitionIDs(); fmt.Sprint(got) != "[0 2]" {
		t.Fatalf("PartitionIDs = %v, want [0 2]", got)
	}
}
