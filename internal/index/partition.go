package index

import (
	"desksearch/internal/postings"
)

// Partition is the read-side contract query evaluation runs against: the
// exact set of operations internal/search needs from one document
// partition of the corpus, and nothing more. The heap-resident *Index is
// the first implementation; internal/segment's lazy DSIX v10 reader is the
// second. Everything above this seam — boolean evaluation, phrase walks,
// prefix expansion, BM25, snippets, suggestions — is backend-agnostic, and
// the two backends must be observationally identical: the backend-equality
// property test holds them to bit-identical query responses.
//
// Implementations must be safe for concurrent readers. Mutation, where an
// implementation supports it at all, is excluded by the search engine's
// maintenance lock, exactly as for *Index.
type Partition interface {
	// Lookup returns the full posting list for term — IDs, frequencies
	// and, on a positional partition, token positions — or nil if absent.
	// The returned list is shared storage — callers must not modify it.
	// Only what reads positions calls it: phrase walks and snippets.
	Lookup(term string) *postings.List

	// Counts returns term's IDs and frequencies, or nil if absent, and
	// promises nothing about positions: a heap index hands out its own
	// list, a lazy segment stops decoding where the block's positions
	// section starts and never reads it. Every consumer of a match set or
	// a frequency — a term under OR or NOT, a single-term query, a prefix
	// expansion — asks here, so a query decodes what it reads. Shared
	// storage, like Lookup's.
	Counts(term string) *postings.List

	// Iterator returns a streaming cursor over term's postings, or nil
	// when the term is absent — or, on a lazy backend, when its block is
	// corrupt, mirroring Lookup's corrupt-means-absent contract. Unlike
	// Lookup, a lazy backend answers without materializing the list:
	// SeekGE rides the block's skip table, so an intersection that visits
	// a fraction of the postings decodes a fraction of the bytes. The
	// iterator is single-use, forward-only, and valid only while the
	// partition is open and unmutated (queries hold the engine's read
	// lock, which guarantees both).
	Iterator(term string) PostingIterator

	// DocFreq returns the number of postings (documents) for term, 0 if
	// absent. Equivalent to Lookup(term).Len() but, on a lazy backend,
	// answered from the term dictionary without decoding the posting
	// block — the difference BM25's document-frequency aggregation rides.
	DocFreq(term string) int

	// TermsFrom calls yield for every dictionary term >= from in
	// ascending byte order, with the term's document frequency, until
	// yield returns false. Prefix expansion seeks to the prefix and stops
	// at the first non-matching term, so a broad dictionary costs only
	// the matched range. TermsFrom("") walks the whole dictionary.
	TermsFrom(from string, yield func(term string, df int) bool)

	// Range calls f for every (term, posting list) pair in ascending
	// term order until f returns false — TermsFrom plus the lists, for
	// the passes that genuinely need every term's postings (snippet
	// window recovery). On a lazy backend this decodes every posting
	// block; prefer TermsFrom when the document frequency suffices.
	Range(f func(term string, l *postings.List) bool)

	// NumTerms returns the number of distinct terms.
	NumTerms() int

	// NumPostings returns the number of (term, file) pairs.
	NumPostings() int64

	// Positional reports whether posting lists carry token positions
	// (phrase queries and snippets require them).
	Positional() bool

	// Docs returns the set of files this partition holds postings for, as
	// a fresh pure-ID list — the complement base NOT evaluation unions
	// into a universe. On a lazy backend it comes from the segment's
	// persisted doc set, not from decoding postings.
	Docs() *postings.List

	// ResidentBytes estimates the partition's current heap footprint:
	// everything for a heap index, the dictionary plus cached blocks for
	// a lazy segment. It is an estimate for observability (/stats), not
	// an accounting guarantee.
	ResidentBytes() int64
}

// PostingIterator is a forward-only streaming cursor over one term's
// posting list — the seam that lets boolean evaluation skip postings it
// can prove irrelevant instead of decoding whole lists. Both backends
// implement it: the heap index over its in-memory lists
// (postings.Iterator), the lazy segment straight off the raw block bytes
// (segment.Iter), where SeekGE jumps via the per-block skip table.
//
// The cursor starts positioned before the first posting; ID/Count are
// valid only after a Next or SeekGE returned true. SeekGE never moves
// backwards: SeekGE(id) with the cursor already at or past id is a
// no-op returning true.
type PostingIterator interface {
	// Next advances to the next posting, returning false once exhausted.
	Next() bool

	// SeekGE advances to the first posting with ID >= id — never moving
	// backwards — and reports whether one exists.
	SeekGE(id postings.FileID) bool

	// ID returns the current posting's document ID.
	ID() postings.FileID

	// Count returns the current posting's term frequency (>= 1).
	Count() uint32

	// MaxCount returns an upper bound on Count over the whole list, or
	// postings.NoMaxCount when the backend cannot bound it without
	// decoding work. WAND turns this into a per-term max-score; an
	// unbounded term falls back to BM25's tf→∞ saturation limit, which
	// is still a sound (just looser) bound.
	MaxCount() uint32

	// Len returns the list's total posting count (the term's document
	// frequency), available without consuming the cursor.
	Len() int
}

// Partitions adapts a slice of concrete heap indices to the interface the
// engine consumes. (Go does not convert []*Index to []Partition
// implicitly.)
func Partitions(ixs []*Index) []Partition {
	out := make([]Partition, len(ixs))
	for i, ix := range ixs {
		out[i] = ix
	}
	return out
}
