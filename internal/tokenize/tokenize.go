// Package tokenize implements the term scanner of the index generator's
// Stage 2 (term extraction).
//
// A term is a maximal run of ASCII letters and digits; letters are folded to
// lower case so that "Index" and "index" hit the same posting list, and a
// run longer than MaxTermLen bytes is dropped whole. That is the one rule:
// the build, an update's re-extraction and the query parser all scan by it,
// so a query term is always spelled as the index spells it. The scanner
// works over a byte slice: extractors read whole files.
package tokenize

// MaxTermLen is the longest run the scanner emits; a longer run of term
// bytes is dropped entirely (it is almost never a useful search term).
const MaxTermLen = 64

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
func ScanBytes(data []byte, emit func(term []byte)) {
	var scratch []byte
	i := 0
	n := len(data)
	for i < n {
		if !isTermByte[data[i]] {
			i++
			continue
		}
		start := i
		lower := true
		for i < n {
			c := data[i]
			if !isTermByte[c] {
				break
			}
			if c >= 'A' && c <= 'Z' {
				lower = false
			}
			i++
		}
		if i-start > MaxTermLen {
			continue
		}
		term := data[start:i]
		if !lower {
			if scratch == nil {
				scratch = make([]byte, MaxTermLen)
			}
			for j, c := range term {
				scratch[j] = toLower[c]
			}
			term = scratch[:len(term)]
		}
		emit(term)
	}
}

// Terms returns all terms in data, in order of appearance (with duplicates).
func Terms(data []byte) []string {
	var out []string
	ScanBytes(data, func(t []byte) { out = append(out, string(t)) })
	return out
}
