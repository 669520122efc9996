package main

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"strings"
)

// The op stream is this package's own frozen copy of the mixed-query
// generator that internal/loadgen introduced: the benchmark's workload
// must not change when that package does. Same seed and vocabulary give
// the same stream; opDigest pins it.

type class string

const (
	classAnd     class = "and"
	classOr      class = "or"
	classNot     class = "not"
	classPhrase  class = "phrase"
	classPrefix  class = "prefix"
	classBM25    class = "bm25"
	classSuggest class = "suggest"
)

// classes fixes the order the mix is expanded in.
var classes = []class{classAnd, classOr, classNot, classPhrase, classPrefix, classBM25, classSuggest}

// mix weights the classes like an interactive search box: conjunctions
// and ranked queries dominate, negations and phrases are the tail.
var mix = map[class]int{
	classAnd:     25,
	classOr:      15,
	classNot:     10,
	classPhrase:  10,
	classPrefix:  10,
	classBM25:    20,
	classSuggest: 10,
}

// op is one generated operation.
type op struct {
	Class class
	// Query is a boolean expression, or the bare prefix for classSuggest.
	Query string
	// Rank is the ranking's wire name ("" for coordination counts).
	Rank  string
	Limit int
	// Snippets asks for per-hit context windows (snippet phase only).
	Snippets bool
}

type generator struct {
	rng   *rand.Rand
	zipf  *rand.Zipf
	vocab []string
	mix   []class // one entry per weight unit
}

func newGenerator(seed int64, vocab []string) *generator {
	var expanded []class
	for _, c := range classes {
		for i := 0; i < mix[c]; i++ {
			expanded = append(expanded, c)
		}
	}
	rng := rand.New(rand.NewSource(seed))
	// The skew internal/corpus writes content with, so hot query terms
	// hit long posting lists.
	zipf := rand.NewZipf(rng, 1.2, 1, uint64(len(vocab)-1))
	return &generator{rng: rng, zipf: zipf, vocab: vocab, mix: expanded}
}

func (g *generator) term() string { return g.vocab[g.zipf.Uint64()] }

func (g *generator) terms(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = g.term()
	}
	return out
}

func (g *generator) next() op {
	c := g.mix[g.rng.Intn(len(g.mix))]
	limit := 10 + g.rng.Intn(40)
	switch c {
	case classAnd:
		return op{Class: c, Query: strings.Join(g.terms(2+g.rng.Intn(2)), " "), Limit: limit}
	case classOr:
		return op{Class: c, Query: strings.Join(g.terms(2+g.rng.Intn(2)), " OR "), Limit: limit}
	case classNot:
		ts := g.terms(2)
		return op{Class: c, Query: ts[0] + " -" + ts[1], Limit: limit}
	case classPhrase:
		return op{Class: c, Query: `"` + strings.Join(g.terms(2), " ") + `"`, Limit: limit}
	case classPrefix:
		t := g.term()
		return op{Class: c, Query: t[:min(3, len(t))] + "*", Rank: "bm25", Limit: limit}
	case classBM25:
		return op{Class: c, Query: strings.Join(g.terms(1+g.rng.Intn(3)), " "), Rank: "bm25", Limit: limit}
	default:
		t := g.term()
		return op{Class: classSuggest, Query: t[:min(2, len(t))], Limit: 10}
	}
}

// stream hands the generator's ops out as consecutive slices: an op is
// never issued twice, so the program's caches see only the repetition
// the Zipf draws themselves contain.
type stream struct {
	g      *generator
	issued int
}

func newStream(seed int64, vocab []string) *stream {
	return &stream{g: newGenerator(seed, vocab)}
}

// take returns the stream's next n ops.
func (s *stream) take(n int) []op {
	out := make([]op, n)
	for i := range out {
		out[i] = s.g.next()
	}
	s.issued += n
	return out
}

// takeClass returns the next n ops of class c, consuming every op up to
// the last one taken.
func (s *stream) takeClass(c class, n int) []op {
	out := make([]op, 0, n)
	for len(out) < n {
		if o := s.take(1)[0]; o.Class == c {
			out = append(out, o)
		}
	}
	return out
}

// digestOps is how many leading ops of a stream opDigest covers.
const digestOps = 4096

// opDigest hashes the first digestOps ops the seed and vocabulary give.
func opDigest(seed int64, vocab []string) string {
	g := newGenerator(seed, vocab)
	h := fnv.New64a()
	for i := 0; i < digestOps; i++ {
		o := g.next()
		fmt.Fprintf(h, "%s\x00%s\x00%s\x00%d\n", o.Class, o.Query, o.Rank, o.Limit)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}
