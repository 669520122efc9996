package shard

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

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

// TestFanOutBound: with a bound of 3 over 16 tasks, every task runs
// exactly once and never more than 3 run at once. The first three wait
// until all three are in flight, so the peak is exactly the bound.
func TestFanOutBound(t *testing.T) {
	const bound, n = 3, 16
	var inFlight, peak atomic.Int32
	runs := make([]atomic.Int32, n)
	full := make(chan struct{})
	fill := sync.OnceFunc(func() { close(full) })
	err := fanOutN(bound, n, func(i int) error {
		now := inFlight.Add(1)
		defer inFlight.Add(-1)
		for p := peak.Load(); now > p && !peak.CompareAndSwap(p, now); p = peak.Load() {
		}
		if now == bound && i < bound {
			fill()
		}
		if i < bound {
			select {
			case <-full:
			case <-time.After(10 * time.Second):
				return fmt.Errorf("task %d: the first %d tasks never ran at once", i, bound)
			}
		}
		runs[i].Add(1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := peak.Load(); got != bound {
		t.Errorf("peak in flight %d, want %d", got, bound)
	}
	for i := range runs {
		if got := runs[i].Load(); got != 1 {
			t.Errorf("task %d ran %d times", i, got)
		}
	}
}

func TestDistributeClampsShardCount(t *testing.T) {
	files, ix, _ := buildCorpus(t)
	set := Distribute(files, []*index.Index{ix}, 0)
	if set.Len() != 1 {
		t.Fatalf("Len = %d, want 1", set.Len())
	}
	checkPartition(t, set, ix, false)
}

// TestFanOut: every index in [0, n) runs exactly once, and when several
// calls fail the caller gets the lowest index's error, even when a higher
// one fails first. The failing calls run on three workers: the lowest
// holds one until the highest, taken by another, has failed.
func TestFanOut(t *testing.T) {
	for _, n := range []int{0, 1, 4, 64} {
		runs := make([]atomic.Int32, n)
		if err := fanOut(n, func(i int) error {
			runs[i].Add(1)
			return nil
		}); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		for i := range runs {
			if got := runs[i].Load(); got != 1 {
				t.Errorf("n=%d: index %d ran %d times", n, i, got)
			}
		}
		if n < 2 {
			continue
		}
		// Every odd index fails; the lowest of them waits until the
		// highest has failed, so the errors arrive out of order.
		lowest, highest := 1, n-1-n%2
		last := make(chan struct{})
		err := fanOutN(3, n, func(i int) error {
			if i%2 == 0 {
				return nil
			}
			switch i {
			case lowest:
				if lowest != highest {
					<-last
				}
			case highest:
				defer close(last)
			}
			return fmt.Errorf("call %d failed", i)
		})
		if want := fmt.Sprintf("call %d failed", lowest); err == nil || err.Error() != want {
			t.Errorf("n=%d: got %v, want %q", n, err, want)
		}
	}
}
