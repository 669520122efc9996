package desksearch

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"desksearch/internal/index"
	"desksearch/internal/postings"
	"desksearch/internal/search"
	"desksearch/internal/vfs"
)

// eagerPartition forces full-list evaluation: its Iterator materializes
// the complete posting list via Lookup and walks it with the in-memory
// cursor, so galloping AND, WAND, and every other skip-driven consumer
// still runs over a fully decoded list. It is the reference semantics the
// streaming backends are held to.
type eagerPartition struct {
	index.Partition
}

func (p eagerPartition) Iterator(term string) index.PostingIterator {
	l := p.Partition.Lookup(term)
	if l == nil {
		return nil
	}
	return postings.NewIterator(l)
}

// eagerView rebuilds a heap catalog's engine over eagerPartition wrappers,
// sharing the underlying result. Queries against it evaluate every posting
// list in full.
func eagerView(c *Catalog) *Catalog {
	parts := index.Partitions(c.result.Indexes())
	wrapped := make([]index.Partition, len(parts))
	for i, p := range parts {
		wrapped[i] = eagerPartition{p}
	}
	return &Catalog{
		result: c.result,
		engine: search.NewEngine(c.result.Files, wrapped...),
	}
}

// randomVocab builds a vocabulary of stem+suffix words, deterministic in
// rng, with deliberate shared prefixes so prefix queries expand to several
// dictionary terms.
func randomVocab(rng *rand.Rand) []string {
	stems := []string{"rep", "ann", "bud", "for", "mil", "qua", "dra", "rev"}
	suffixes := []string{"ort", "orted", "orting", "ual", "get", "ecast", "kshake", "rterly", "ft", "iew", "enue", "ine"}
	seen := make(map[string]bool)
	var vocab []string
	n := 12 + rng.Intn(16)
	for len(vocab) < n {
		w := stems[rng.Intn(len(stems))] + suffixes[rng.Intn(len(suffixes))]
		if !seen[w] {
			seen[w] = true
			vocab = append(vocab, w)
		}
	}
	return vocab
}

// randomCorpus writes a seeded random corpus: Zipf-free uniform draws are
// fine here — the property is semantic equality, not performance.
func randomCorpus(t *testing.T, rng *rand.Rand, vocab []string) *vfs.MemFS {
	t.Helper()
	fs := vfs.NewMemFS()
	nFiles := 40 + rng.Intn(100)
	for i := 0; i < nFiles; i++ {
		var words []string
		n := 3 + rng.Intn(45)
		for w := 0; w < n; w++ {
			words = append(words, vocab[rng.Intn(len(vocab))])
		}
		if rng.Intn(4) == 0 {
			// Adjacent pair from the vocabulary: phrase-query material.
			j := rng.Intn(len(vocab) - 1)
			words = append(words, vocab[j], vocab[j+1])
		}
		name := fmt.Sprintf("dir%d/file%03d.txt", i%4, i)
		if err := fs.WriteFile(name, []byte(strings.Join(words, " "))); err != nil {
			t.Fatal(err)
		}
	}
	return fs
}

// randomQueries draws a mixed workload — AND, OR, NOT, phrase, prefix,
// grouped boolean, single term — across all three rankings with random
// limits and offsets.
func randomQueries(rng *rand.Rand, vocab []string) []Query {
	pick := func() string { return vocab[rng.Intn(len(vocab))] }
	ranks := []Ranking{RankCount, RankTF, RankBM25}
	var qs []Query
	for i := 0; i < 30; i++ {
		var text string
		switch rng.Intn(7) {
		case 0:
			text = pick() + " " + pick() // AND
		case 1:
			text = pick() + " OR " + pick()
		case 2:
			text = pick() + " -" + pick() // NOT
		case 3:
			j := rng.Intn(len(vocab) - 1)
			text = fmt.Sprintf("%q", vocab[j]+" "+vocab[j+1]) // phrase
		case 4:
			text = pick()[:3] + "*" // prefix expansion
		case 5:
			text = "(" + pick() + " OR " + pick() + ") " + pick()
		case 6:
			text = pick()
		}
		q := Query{Text: text, Ranking: ranks[rng.Intn(len(ranks))]}
		if rng.Intn(2) == 0 {
			q.Limit = 1 + rng.Intn(30)
			if rng.Intn(3) == 0 {
				q.Offset = rng.Intn(12)
			}
			q.Snippets = rng.Intn(2) == 0
		}
		qs = append(qs, q)
	}
	return qs
}

// TestStreamingMatchesEagerEvaluation is the randomized cross-backend
// property test: for seeded random corpora and query mixes, streaming
// evaluation on the heap backend and on the lazy segment backend must be
// bit-identical (scores under math.Float64bits, paths, terms, totals,
// snippets) to eager full-list evaluation of the same queries. Any
// divergence — a galloping AND skipping a document it shouldn't, a WAND
// bound pruning a true top-k hit, an offset page sliced differently — is
// a correctness bug, not a tolerance question. TestEveryShapeMatchesOracle
// holds both backends to the reference too; this test stays for the one
// thing it alone checks: corpora of 40–139 files, up to nearly three times
// the oracle's 15–49, so the lists galloping AND and WAND skip through
// are that much longer.
func TestStreamingMatchesEagerEvaluation(t *testing.T) {
	for trial := 0; trial < 4; trial++ {
		shards := 0
		if trial%2 == 1 {
			shards = 3
		}
		t.Run(fmt.Sprintf("seed%d_shards%d", trial, shards), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(1000 + trial)))
			vocab := randomVocab(rng)
			fs := randomCorpus(t, rng, vocab)
			opt := Options{Positions: true, Shards: shards}
			built, err := IndexFS(fs, ".", opt)
			if err != nil {
				t.Fatal(err)
			}
			dir := t.TempDir()
			if err := built.SaveDir(dir); err != nil {
				t.Fatal(err)
			}
			heap, err := LoadDir(dir, opt)
			if err != nil {
				t.Fatal(err)
			}
			lazy, err := OpenDir(dir, opt)
			if err != nil {
				t.Fatal(err)
			}
			defer lazy.Close()
			eager := eagerView(heap)

			ctx := context.Background()
			for qi, q := range randomQueries(rng, vocab) {
				label := fmt.Sprintf("q%d %q rank=%s limit=%d offset=%d",
					qi, q.Text, q.Ranking, q.Limit, q.Offset)
				re, err := eager.Query(ctx, q)
				if err != nil {
					t.Fatalf("%s eager: %v", label, err)
				}
				rh, err := heap.Query(ctx, q)
				if err != nil {
					t.Fatalf("%s heap: %v", label, err)
				}
				rl, err := lazy.Query(ctx, q)
				if err != nil {
					t.Fatalf("%s lazy: %v", label, err)
				}
				equalResponses(t, label+" [heap vs eager]", re, rh)
				equalResponses(t, label+" [lazy vs eager]", re, rl)
			}
		})
	}
}
