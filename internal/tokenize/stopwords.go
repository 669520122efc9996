package tokenize

// StopSet is an immutable set of stop words (terms excluded from the index).
type StopSet struct {
	set map[string]struct{}
}

// NewStopSet builds a StopSet from the given words. Words are expected in
// lower case, matching the scanner's output.
func NewStopSet(words []string) *StopSet {
	s := make(map[string]struct{}, len(words))
	for _, w := range words {
		s[w] = struct{}{}
	}
	return &StopSet{set: s}
}

// ContainsBytes reports whether the scanner's byte view term is a stop
// word. It does not allocate: the compiler indexes a map by string(term)
// without a copy.
func (s *StopSet) ContainsBytes(term []byte) bool {
	_, ok := s.set[string(term)]
	return ok
}

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
