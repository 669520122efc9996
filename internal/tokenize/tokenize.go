// Package tokenize implements the term scanner of the index generator's
// Stage 2 (term extraction).
//
// A term is a maximal run of ASCII letters and digits; letters are folded to
// lower case so that "Index" and "index" hit the same posting list. The
// scanner works over a byte slice: extractors read whole files.
package tokenize

// Options configure the scanner.
type Options struct {
	// MinLen drops terms shorter than this many bytes. Zero means 1.
	MinLen int
	// MaxLen truncates recognition: terms longer than MaxLen bytes are
	// dropped entirely (they are almost never useful search terms).
	// Zero means no limit.
	MaxLen int
	// Stopwords, when non-nil, drops the listed (lower-case) terms.
	Stopwords *StopSet
	// KeepDigits controls whether runs of digits count as term characters.
	// The paper's benchmark is prose text; digits default to on because
	// desktop documents contain part numbers, dates, and the like.
	DropDigits bool
}

// Default are the options used by the index generator when none are given.
var Default = Options{MinLen: 1, MaxLen: 64}

var isTermByte [256]bool
var toLower [256]byte

func init() {
	for c := 0; c < 256; c++ {
		toLower[c] = byte(c)
	}
	for c := 'a'; c <= 'z'; c++ {
		isTermByte[c] = true
	}
	for c := 'A'; c <= 'Z'; c++ {
		isTermByte[c] = true
		toLower[c] = byte(c - 'A' + 'a')
	}
	for c := '0'; c <= '9'; c++ {
		isTermByte[c] = true
	}
}

// ScanBytes splits data into terms and calls emit for each one. It is the
// package's one scanning loop and the hot loop of term extraction: a single
// pass over data that allocates nothing per term. The slice passed to emit
// is a view — of data itself, or, when the term had upper-case letters, of
// a scratch buffer the next term overwrites — valid only until emit
// returns; emit must copy what it keeps and must not modify it.
func ScanBytes(data []byte, opts Options, emit func(term []byte)) {
	minLen := opts.MinLen
	if minLen < 1 {
		minLen = 1
	}
	digitOK := !opts.DropDigits
	var scratch []byte
	i := 0
	n := len(data)
	for i < n {
		c := data[i]
		if !isTermByte[c] || (!digitOK && c >= '0' && c <= '9') {
			i++
			continue
		}
		start := i
		lower := true
		for i < n {
			c = data[i]
			if !isTermByte[c] || (!digitOK && c >= '0' && c <= '9') {
				break
			}
			if c >= 'A' && c <= 'Z' {
				lower = false
			}
			i++
		}
		length := i - start
		if length < minLen || (opts.MaxLen > 0 && length > opts.MaxLen) {
			continue
		}
		term := data[start:i]
		if !lower {
			if cap(scratch) < length {
				scratch = make([]byte, max(64, 2*length))
			}
			scratch = scratch[:length]
			for j, c := range term {
				scratch[j] = toLower[c]
			}
			term = scratch
		}
		if opts.Stopwords != nil && opts.Stopwords.ContainsBytes(term) {
			continue
		}
		emit(term)
	}
}

// Scan is ScanBytes with each term copied into a fresh string, which emit
// may retain.
func Scan(data []byte, opts Options, emit func(term string)) {
	ScanBytes(data, opts, func(term []byte) { emit(string(term)) })
}

// Terms returns all terms in data, in order of appearance (with duplicates).
func Terms(data []byte, opts Options) []string {
	var out []string
	Scan(data, opts, func(t string) { out = append(out, t) })
	return out
}
