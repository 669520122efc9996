package search

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sync/atomic"
	"testing"

	"desksearch/internal/index"
	"desksearch/internal/postings"
)

// windowCounter is a Partition that counts the files its Window is handed.
type windowCounter struct {
	index.Partition
	files *atomic.Int64
}

func (w windowCounter) Window(files []postings.FileID, lo, hi []uint32, emit func(i int, term string, pos uint32)) {
	w.files.Add(int64(len(files)))
	w.Partition.Window(files, lo, hi, emit)
}

// TestSnippetsBuiltForThePageOnly: a deep page's snippets are built for
// its own hits alone — Window sees at most Limit files in all, not each
// partition's top Limit+Offset — and the page is the one a shallow request
// for Limit+Offset hits returns at the same ranks, snippets included.
func TestSnippetsBuiltForThePageOnly(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	docs := make([][]string, 400)
	for i := range docs {
		for n := 4 + rng.Intn(30); n > 0; n-- {
			docs[i] = append(docs[i], fmt.Sprintf("w%d", rng.Intn(12)))
		}
		docs[i] = append(docs[i], "alpha")
		rng.Shuffle(len(docs[i]), func(a, b int) { docs[i][a], docs[i][b] = docs[i][b], docs[i][a] })
	}
	files, ixs := positionalParts(docs, 4)
	var seen atomic.Int64
	counted := make([]index.Partition, len(ixs))
	for i, ix := range ixs {
		counted[i] = windowCounter{ix, &seen}
	}

	req := Request{Query: MustParse("alpha w3"), Ranking: RankBM25, Offset: 200, Limit: 10, Snippets: true}
	got, err := NewEngine(files, counted...).Query(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if n := seen.Load(); n > int64(req.Limit) {
		t.Fatalf("Window was handed %d files for a page of %d", n, req.Limit)
	}

	shallow := req
	shallow.Offset, shallow.Limit = 0, req.Offset+req.Limit
	ref, err := NewEngine(files, index.Partitions(ixs)...).Query(context.Background(), shallow)
	if err != nil {
		t.Fatal(err)
	}
	want := ref.Hits[req.Offset:]
	if len(got.Hits) != req.Limit || !reflect.DeepEqual(got.Hits, want) {
		t.Fatalf("page at offset %d:\n got %+v\nwant %+v", req.Offset, got.Hits, want)
	}
	for _, h := range got.Hits {
		if h.Snippet == nil {
			t.Fatalf("%s has no snippet", h.Path)
		}
	}
}

// TestSnippetWindowAtTopOfPositionRange: an anchor within snippetRadius of
// the largest position gets a window ending there, not one whose end
// wrapped below its start.
func TestSnippetWindowAtTopOfPositionRange(t *testing.T) {
	files := index.NewFileTable()
	id := files.Add("top", 1, 1)
	ix := index.New(0)
	ix.SetPositional()
	for term, pos := range map[string]uint32{
		"before": math.MaxUint32 - 7,
		"edge":   math.MaxUint32 - 2,
		"end":    math.MaxUint32,
	} {
		ix.MergeTerm(term, postings.FromSortedIDPositions([]postings.FileID{id}, [][]uint32{{pos}}))
	}
	res, err := NewEngine(files, ix).Query(context.Background(), Request{Query: MustParse("edge"), Limit: 5, Snippets: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Hits) != 1 || res.Hits[0].Snippet == nil {
		t.Fatalf("hits = %+v, want one with a snippet", res.Hits)
	}
	want := Snippet{Text: "before edge end", Highlights: []Span{{7, 11}}}
	if got := *res.Hits[0].Snippet; !reflect.DeepEqual(got, want) {
		t.Fatalf("snippet = %+v, want %+v", got, want)
	}
}
