package shard

import (
	"testing"

	"desksearch/internal/index"
	"desksearch/internal/postings"
)

// buildCorpus returns a file table and a single index over a small corpus
// with overlapping vocabulary, plus the per-file term blocks for
// re-deriving expectations.
func buildCorpus(t testing.TB) (*index.FileTable, *index.Index, [][]string) {
	t.Helper()
	blocks := [][]string{
		{"alpha", "beta", "gamma"},
		{"alpha", "delta"},
		{"beta", "delta", "epsilon"},
		{"gamma"},
		{"alpha", "beta", "gamma", "delta", "epsilon"},
		{"zeta"},
		{"alpha", "zeta"},
		{"epsilon", "zeta"},
		{}, // a term-free file still occupies a FileID
		{"alpha"},
	}
	files := index.NewFileTable()
	bld := index.NewBuilder(false)
	for i, terms := range blocks {
		id := files.Add("file-"+string(rune('a'+i)), int64(len(terms)), int64(i+1))
		bld.AddBlock(id, terms, nil)
	}
	return files, bld.Index(), blocks
}

func TestShardForBoundsAndDeterminism(t *testing.T) {
	for _, n := range []int{1, 2, 4, 8, 13} {
		for id := postings.FileID(0); id < 1000; id++ {
			s := ShardFor(id, n)
			if s < 0 || s >= n {
				t.Fatalf("ShardFor(%d, %d) = %d out of range", id, n, s)
			}
			if s != ShardFor(id, n) {
				t.Fatalf("ShardFor(%d, %d) not deterministic", id, n)
			}
		}
	}
	if ShardFor(42, 0) != 0 || ShardFor(42, 1) != 0 {
		t.Error("n <= 1 must map every file to shard 0")
	}
}

func TestShardForSpreads(t *testing.T) {
	// 1000 sequential IDs over 4 shards: hashing should not leave any
	// shard starved the way a range split of clustered IDs would.
	counts := make([]int, 4)
	for id := postings.FileID(0); id < 1000; id++ {
		counts[ShardFor(id, 4)]++
	}
	for s, c := range counts {
		if c < 100 {
			t.Errorf("shard %d got only %d of 1000 files", s, c)
		}
	}
}

// checkPartition verifies the document-sharding invariants of set against
// the original single index: the shards' union equals the original, and
// every posting sits in the shard its FileID hashes to.
func checkPartition(t *testing.T, set *Set, original *index.Index, hashed bool) {
	t.Helper()
	union := index.New(0)
	for _, ix := range set.Shards() {
		ix.Range(func(term string, l *postings.List) bool {
			union.MergeTerm(term, l.Clone()) // MergeTerm takes its list; the shards keep theirs
			return true
		})
	}
	if !union.Equal(original) {
		t.Errorf("union of %d shards != original index", set.Len())
	}
	if !hashed {
		return
	}
	for s, ix := range set.Shards() {
		ix.Range(func(term string, l *postings.List) bool {
			for _, id := range l.IDs() {
				if want := ShardFor(id, set.Len()); want != s {
					t.Errorf("posting (%q, %d) in shard %d, hashes to %d", term, id, s, want)
				}
			}
			return true
		})
	}
}

func TestDistributeSingleSource(t *testing.T) {
	files, ix, _ := buildCorpus(t)
	for _, n := range []int{1, 2, 4, 8} {
		set := Distribute(files, []*index.Index{ix}, n)
		if set.Len() != n {
			t.Fatalf("Len = %d, want %d", set.Len(), n)
		}
		if set.Files() != files {
			t.Error("file table not shared")
		}
		checkPartition(t, set, ix, true)
		var got int64
		for _, sh := range set.Shards() {
			got += sh.NumPostings()
		}
		if want := ix.NumPostings(); got != want {
			t.Errorf("n=%d: shards hold %d postings, want %d", n, got, want)
		}
	}
}

func TestDistributeMultipleSources(t *testing.T) {
	files, ix, blocks := buildCorpus(t)
	// Split the corpus round-robin into 3 "replicas", then re-shard to 4.
	bld := []*index.Builder{index.NewBuilder(false), index.NewBuilder(false), index.NewBuilder(false)}
	for i, terms := range blocks {
		bld[i%3].AddBlock(postings.FileID(i), terms, nil)
	}
	replicas := []*index.Index{bld[0].Index(), bld[1].Index(), bld[2].Index()}
	set := Distribute(files, replicas, 4)
	checkPartition(t, set, ix, true)
}

func TestDistributeClampsShardCount(t *testing.T) {
	files, ix, _ := buildCorpus(t)
	set := Distribute(files, []*index.Index{ix}, 0)
	if set.Len() != 1 {
		t.Fatalf("Len = %d, want 1", set.Len())
	}
	checkPartition(t, set, ix, false)
}
