package tokenize

import "desksearch/internal/container"

// StopSet is an immutable set of stop words (terms excluded from the index).
type StopSet struct {
	set *container.HashSet
}

// NewStopSet builds a StopSet from the given words. Words are expected in
// lower case, matching the scanner's output.
func NewStopSet(words []string) *StopSet {
	s := container.NewHashSet(len(words))
	for _, w := range words {
		s.Add(w)
	}
	return &StopSet{set: s}
}

// Contains reports whether term is a stop word.
func (s *StopSet) Contains(term string) bool { return s.set.Contains(term) }

// ContainsBytes is Contains for the scanner's byte views; it does not
// allocate.
func (s *StopSet) ContainsBytes(term []byte) bool { return s.set.ContainsBytes(term) }

// Len returns the number of stop words.
func (s *StopSet) Len() int { return s.set.Len() }

// EnglishStopwords is a conventional small English stop-word list. The
// paper's generator indexes every term; the list is provided for the
// desktop-search frontend, where stop words bloat the index without
// improving retrieval.
var EnglishStopwords = []string{
	"a", "an", "and", "are", "as", "at", "be", "but", "by", "for", "if",
	"in", "into", "is", "it", "no", "not", "of", "on", "or", "such", "that",
	"the", "their", "then", "there", "these", "they", "this", "to", "was",
	"will", "with",
}
