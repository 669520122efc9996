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

import "desksearch/internal/fnv"

// MaxTermLen is the longest run the scanner emits; a longer run of term
// bytes is dropped entirely (it is almost never a useful search term).
const MaxTermLen = 64

// fold maps a byte to the term byte it contributes — a lower-case letter
// or a digit — or to 0 for a separator. It is the scanner's one table:
// class test and case fold in a single load.
var fold [256]byte

func init() {
	for c := byte('a'); c <= 'z'; c++ {
		fold[c] = c
		fold[c-'a'+'A'] = c
	}
	for c := byte('0'); c <= '9'; c++ {
		fold[c] = c
	}
}

// ScanBytes splits data into terms and calls emit for each one, with the
// term's FNV-1 hash (fnv.Hash32Bytes of the term as emitted). It is the
// package's one scanning loop and the hot loop of term extraction: a
// single pass over data that classifies, folds and hashes each byte with
// one table load, and allocates nothing per term. The slice passed to
// emit is a view — of data itself, or, when the term had upper-case
// letters, of a scratch buffer the next term overwrites — valid only
// until emit returns; emit must copy what it keeps and must not modify
// it.
func ScanBytes(data []byte, emit func(term []byte, hash uint32)) {
	var scratch []byte
	i := 0
	n := len(data)
	for i < n {
		if fold[data[i]] == 0 {
			i++
			continue
		}
		start := i
		h := uint32(fnv.Offset32)
		var upper byte // nonzero once a byte folded to another
		for i < n {
			c := data[i]
			f := fold[c]
			if f == 0 {
				break
			}
			h = fnv.Step32(h, f)
			upper |= c ^ f
			i++
		}
		end := i
		i++ // data[end], if there is one, is a separator
		if end-start > MaxTermLen {
			continue
		}
		term := data[start:end]
		if upper != 0 {
			if scratch == nil {
				scratch = make([]byte, MaxTermLen)
			}
			for j, c := range term {
				scratch[j] = fold[c]
			}
			term = scratch[:len(term)]
		}
		emit(term, h)
	}
}

// Terms returns all terms in data, in order of appearance (with duplicates).
func Terms(data []byte) []string {
	var out []string
	ScanBytes(data, func(t []byte, _ uint32) { out = append(out, string(t)) })
	return out
}
