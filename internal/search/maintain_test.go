package search

import (
	"fmt"
	"sync"
	"testing"

	"desksearch/internal/index"
	"desksearch/internal/postings"
)

// These tests cover the engine's interaction with incremental index
// maintenance: the stale-universe bug (a NOT query resurrecting deleted
// files out of the cached complement base) and the safety of queries
// running concurrently with updates.

func maintFixture() (*index.FileTable, *index.Index) {
	files := index.NewFileTable()
	bld := index.NewBuilder(false)
	docs := [][]string{
		{"alpha", "beta"},
		{"beta", "gamma"},
		{"alpha", "gamma"},
		{"delta"},
	}
	for i, terms := range docs {
		id := files.Add(fmt.Sprintf("doc%d.txt", i), int64(len(terms)), int64(i+1))
		bld.AddBlock(id, terms, nil)
	}
	return files, bld.Index()
}

// TestNotExcludesRemovedFile is the ISSUE's regression: index → remove a
// file → "NOT term" must not return it. Before invalidation existed, the
// universe cached by the first query kept answering for the deleted file.
func TestNotExcludesRemovedFile(t *testing.T) {
	files, ix := maintFixture()
	e := NewEngine(files, ix)

	// Prime the universe cache with a NOT query that matches doc3.
	hits, err := searchString(e, "-alpha")
	if err != nil {
		t.Fatal(err)
	}
	if got := len(hits); got != 2 { // doc1, doc3
		t.Fatalf("-alpha before removal: %d hits, want 2", got)
	}

	// Remove doc3 through the maintenance path.
	victim := postings.FileID(3)
	e.Maintain(func() {
		ix.RemoveFiles(postings.FromIDs([]postings.FileID{victim}))
		files.Tombstone(victim)
	})

	hits, err = searchString(e, "-alpha")
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range hits {
		if h.File == victim {
			t.Fatalf("-alpha returned deleted file %s", h.Path)
		}
	}
	if got := len(hits); got != 1 { // doc1 only
		t.Errorf("-alpha after removal: %d hits, want 1", got)
	}

	// A tombstoned term-free file must not reappear through any negation.
	if hits, _ := searchString(e, "-beta"); len(hits) != 1 {
		t.Errorf("-beta after removal: %v, want just doc2", hits)
	}
}

// TestNotExcludesRemovedFileAcrossReplicas checks the same regression when
// the universe is derived per-partition from posting lists.
func TestNotExcludesRemovedFileAcrossReplicas(t *testing.T) {
	files := index.NewFileTable()
	bld := newBuilders(2, false)
	docs := [][]string{{"alpha"}, {"beta"}, {"alpha", "beta"}, {"gamma"}}
	for i, terms := range docs {
		id := files.Add(fmt.Sprintf("r%d.txt", i), 1, int64(i+1))
		bld[i%2].AddBlock(id, terms, nil)
	}
	replicas := buildAll(bld)
	e := NewEngine(files, index.Partitions(replicas)...)
	if hits, _ := searchString(e, "-alpha"); len(hits) != 2 {
		t.Fatalf("-alpha before removal: %v", hits)
	}
	victim := postings.FileID(1) // lives in replica 1
	e.Maintain(func() {
		for _, r := range replicas {
			r.RemoveFiles(postings.FromIDs([]postings.FileID{victim}))
		}
		files.Tombstone(victim)
	})
	hits, _ := searchString(e, "-alpha")
	if len(hits) != 1 || hits[0].File != 3 {
		t.Errorf("-alpha after removal: %v, want only r3", hits)
	}
}

// TestConcurrentSearchAndUpdate exercises queries racing incremental
// updates through the engine's lock; run under -race it is the ISSUE's
// aliasing regression test. Without the read-write discipline (and the
// term-lookup clone at eval's boundary) the detector reports the updater
// mutating posting lists mid-query.
func TestConcurrentSearchAndUpdate(t *testing.T) {
	files, ix := maintFixture()
	e := NewEngine(files, ix)
	queries := []string{"alpha", "alpha OR beta", "-gamma", "beta -alpha"}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := searchString(e, queries[(i+w)%len(queries)]); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		blocks := [][]string{{"alpha", "epsilon"}, {"beta"}, {"alpha", "beta", "gamma"}}
		for i := 0; i < 200; i++ {
			e.Maintain(func() {
				ix.RemoveFiles(postings.FromIDs([]postings.FileID{postings.FileID(i % 3)}))
				one := index.NewBuilder(false)
				one.AddBlock(postings.FileID(i%3), blocks[i%len(blocks)], nil)
				ix.Join(one.Index())
			})
		}
		close(stop)
	}()
	wg.Wait()
}

// TestSwapReplacesPartitions covers the engine's full-reload hook: after
// Swap, queries answer only from the new partitions, the NOT universes
// are rebuilt, and the generation has advanced.
func TestSwapReplacesPartitions(t *testing.T) {
	files, ix := maintFixture()
	e := NewEngine(files, ix)
	searchString(e, "-alpha") // prime the universe cache
	g0 := e.Generation()

	freshFiles := index.NewFileTable()
	bld := index.NewBuilder(false)
	id := freshFiles.Add("new.txt", 1, 1)
	bld.AddBlock(id, []string{"omega"}, nil)
	fresh := bld.Index()

	var swappedInside bool
	e.Swap(freshFiles, []index.Partition{fresh}, nil, func() { swappedInside = true })
	if !swappedInside {
		t.Fatal("then-callback not run")
	}
	if e.Generation() == g0 {
		t.Error("Swap did not advance the generation")
	}
	if e.Indices() != 1 {
		t.Errorf("Indices = %d after swap", e.Indices())
	}
	if hits, _ := searchString(e, "alpha"); len(hits) != 0 {
		t.Errorf("old partition still answering: %v", hits)
	}
	hits, _ := searchString(e, "omega")
	if len(hits) != 1 || hits[0].Path != "new.txt" {
		t.Errorf("new partition not answering: %v", hits)
	}
	// The universe must have been rebuilt for the new file table.
	if hits, _ := searchString(e, "-omega"); len(hits) != 0 {
		t.Errorf("stale universe after swap: %v", hits)
	}
}
