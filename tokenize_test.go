package desksearch

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"desksearch/internal/tokenize"
	"desksearch/internal/vfs"
)

// tokenizeRun returns n random term bytes — letters of either case and
// digits, never a separator.
func tokenizeRun(rng *rand.Rand, n int) string {
	const termBytes = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"
	b := make([]byte, n)
	for i := range b {
		b[i] = termBytes[rng.Intn(len(termBytes))]
	}
	return string(b)
}

// tokenizeFS writes random files of mixed-case words, digit runs and runs
// of exactly tokenize.MaxTermLen and MaxTermLen+1 bytes, split by
// punctuation, whitespace and non-ASCII bytes, plus span.txt, whose two
// words are separated only by an over-long run.
func tokenizeFS(t *testing.T, rng *rand.Rand, long string) *vfs.MemFS {
	t.Helper()
	seps := []string{" ", "\n", ", ", ".", "-", "_", "/", "(", ")", "\"", "'", "\t", "é", "\xff"}
	fs := vfs.NewMemFS()
	for f := 0; f < 12; f++ {
		var sb strings.Builder
		for range 20 + rng.Intn(30) {
			switch r := rng.Intn(10); {
			case r == 0:
				sb.WriteString(fmt.Sprint(rng.Intn(100000)))
			case r == 1:
				sb.WriteString(tokenizeRun(rng, tokenize.MaxTermLen))
			case r == 2:
				sb.WriteString(tokenizeRun(rng, tokenize.MaxTermLen+1))
			default:
				// At least four bytes, so no word is an operator (AND, OR,
				// NOT) when it is queried alone.
				sb.WriteString(tokenizeRun(rng, 4+rng.Intn(8)))
			}
			sb.WriteString(seps[rng.Intn(len(seps))])
		}
		if err := fs.WriteFile(fmt.Sprintf("d%d/f%02d.txt", f%3, f), []byte(sb.String())); err != nil {
			t.Fatal(err)
		}
	}
	if err := fs.WriteFile("span.txt", []byte("Spanleft "+long+" SPANRIGHT")); err != nil {
		t.Fatal(err)
	}
	return fs
}

// TestQueryTokenizesLikeBuild: the query parser and the build scan by one
// rule, so on a positional catalog — built, and reopened lazily from its
// saved directory — every term tokenize.Terms yields for a file hits that
// file when queried alone, a quoted phrase spanning a dropped over-long run
// matches across it, and an over-long word queried alone is refused.
func TestQueryTokenizesLikeBuild(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	long := tokenizeRun(rng, tokenize.MaxTermLen+1)
	fs := tokenizeFS(t, rng, long)
	built, err := IndexFS(fs, ".", Options{Positions: true, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := built.SaveDir(dir); err != nil {
		t.Fatal(err)
	}
	opened, err := OpenDir(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for name, cat := range map[string]*Catalog{"built": built, "OpenDir": opened} {
		queried := 0
		for _, ref := range mustList(t, fs) {
			path := ref.Path
			data, err := fs.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			for _, term := range tokenize.Terms(data) {
				if !slices.ContainsFunc(queryAll(t, cat, term), func(h Hit) bool { return h.Path == path }) {
					t.Errorf("%s: term %q of %s does not hit it", name, term, path)
				}
				queried++
			}
		}
		if queried < 200 {
			t.Fatalf("%s: only %d terms queried", name, queried)
		}
		phrase := `"spanleft ` + long + ` spanright"`
		if hits := queryPaths(t, cat, phrase); !slices.Equal(hits, []string{"span.txt"}) {
			t.Errorf("%s: phrase across the dropped run hit %q, want [span.txt]", name, hits)
		}
		_, err := cat.Query(context.Background(), Query{Text: long})
		if err == nil || !strings.Contains(err.Error(), "contains no searchable term") {
			t.Errorf("%s: over-long word alone = %v, want a no-searchable-term error", name, err)
		}
	}
}
