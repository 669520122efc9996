package server

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"desksearch"
	"desksearch/internal/postings"
)

// samplePartial is a partial exercising every optional part of the layout:
// hits with and without terms, with and without snippets, a snippet with
// and without highlights, scores whose bits a decimal round trip would be
// tempted to touch, and a non-empty df vector.
func samplePartial() *Partial {
	return &Partial{
		Total:      1234,
		Generation: 7,
		DF:         desksearch.DocFreqs{Docs: 796, Tokens: 1 << 40, Terms: []int{3, 0, 795}, Prefixes: []int{41}},
		Partitions: []PartitionStat{
			{Partition: 0, Matched: 600, DurationUS: 81.25},
			{Partition: 2, Matched: 634, DurationUS: 0.001},
		},
		Hits: []desksearch.Hit{
			{File: 0, Path: "a.txt", Score: 0.1 + 0.2, Terms: []string{"report", "repor*"},
				Snippet: &desksearch.Snippet{Text: "the annual report of", Highlights: []desksearch.Span{{Start: 4, End: 10}, {Start: 11, End: 17}}}},
			{File: math.MaxUint32, Path: "dir/ünïcode name.txt", Score: math.SmallestNonzeroFloat64, Terms: []string{"x"}},
			{File: 9, Path: "", Score: 3, Snippet: &desksearch.Snippet{Text: ""}},
			{File: 10, Path: "plain.txt", Score: math.Inf(1)},
		},
	}
}

func TestPartialRoundTrip(t *testing.T) {
	want := samplePartial()
	got, err := DecodePartial(AppendPartial(nil, want))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip changed the partial:\n got %+v\nwant %+v", got, want)
	}
	for i := range want.Hits {
		if math.Float64bits(got.Hits[i].Score) != math.Float64bits(want.Hits[i].Score) {
			t.Fatalf("hit %d score bits %x, want %x", i, math.Float64bits(got.Hits[i].Score), math.Float64bits(want.Hits[i].Score))
		}
	}

	// Appending extends dst and leaves what it held alone.
	if b := AppendPartial([]byte("xy"), want); string(b[:2]) != "xy" {
		t.Fatalf("AppendPartial overwrote its destination: %q", b[:2])
	}

	// The empty partial — a worker with no match — is a valid one.
	empty, err := DecodePartial(AppendPartial(nil, &Partial{}))
	if err != nil {
		t.Fatal(err)
	}
	if empty.Total != 0 || len(empty.Hits) != 0 || len(empty.Partitions) != 0 || len(empty.DF.Terms) != 0 {
		t.Fatalf("empty partial decoded as %+v", empty)
	}
}

// TestPartialRejectsMalformed: the decoder reads another process's bytes,
// so every way of being short, long, or from a different layout version is
// an error — never a panic, never a partial answer.
func TestPartialRejectsMalformed(t *testing.T) {
	valid := AppendPartial(nil, samplePartial())
	for n := 0; n < len(valid); n++ {
		if p, err := DecodePartial(valid[:n]); err == nil {
			t.Fatalf("the %d-byte prefix of a %d-byte partial decoded: %+v", n, len(valid), p)
		}
	}
	if _, err := DecodePartial(append(append([]byte(nil), valid...), 0)); err == nil {
		t.Fatal("a partial with a trailing byte decoded")
	}
	otherVersion := append([]byte(nil), valid...)
	otherVersion[0]++
	if _, err := DecodePartial(otherVersion); err == nil {
		t.Fatal("a partial with another version byte decoded")
	}
	// What the previous wire shape looked like, for a broker one commit
	// ahead of its workers.
	if _, err := DecodePartial([]byte(`{"total":0,"generation":1,"hits":[],"partitions":[]}`)); err == nil {
		t.Fatal("a JSON body decoded as a partial")
	}
}

// TestPartialCountsBoundedByInput: a forged count must fail against the
// bytes remaining before anything is allocated for it. Each case is a
// valid header followed by a count of 2^60 where a section begins; if the
// decoder trusted it, make() would panic or exhaust memory.
func TestPartialCountsBoundedByInput(t *testing.T) {
	huge := []byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x10} // uvarint 2^60
	header := []byte{partialVersion, 0, 0, 0, 0}                         // version, total, generation, docs, tokens
	cases := map[string][]byte{
		"df terms":    append(append([]byte(nil), header...), huge...),
		"df prefixes": append(append(append([]byte(nil), header...), 0), huge...),
		"partitions":  append(append(append([]byte(nil), header...), 0, 0), huge...),
		"hits":        append(append(append([]byte(nil), header...), 0, 0, 0), huge...),
		"hit terms":   append(append(append([]byte(nil), header...), 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0), huge...),
	}
	for name, data := range cases {
		// Pad so the count is not rejected merely for being the last bytes.
		data = append(data, make([]byte, 64)...)
		allocs := testing.AllocsPerRun(1, func() {
			if _, err := DecodePartial(data); err == nil {
				t.Errorf("%s: a count of 2^60 in a %d-byte partial decoded", name, len(data))
			}
		})
		if allocs > 8 {
			t.Errorf("%s: rejecting a forged count took %.0f allocations", name, allocs)
		}
	}
}

// TestPartialDecodeAllocatesPerHit pins the decoder's allocation shape:
// proportional to the hits (one slice of them, one copy of the bytes every
// string points into, then a terms slice and a snippet per hit that has
// them), not to the fields — the JSON decoder this replaced allocated
// every path, term and snippet string separately, on top of its own
// bookkeeping.
func TestPartialDecodeAllocatesPerHit(t *testing.T) {
	build := func(hits int, rich bool) []byte {
		p := &Partial{Total: hits, Partitions: []PartitionStat{{Partition: 1, Matched: hits, DurationUS: 50}}}
		for i := 0; i < hits; i++ {
			h := desksearch.Hit{File: postings.FileID(i), Path: fmt.Sprintf("dir%d/file%03d.txt", i%5, i), Score: float64(hits - i)}
			if rich {
				h.Terms = []string{"annual", "report", "repor*"}
				h.Snippet = &desksearch.Snippet{
					Text:       "the quarterly and annual report of the budget review",
					Highlights: []desksearch.Span{{Start: 18, End: 24}, {Start: 25, End: 31}},
				}
			}
			p.Hits = append(p.Hits, h)
		}
		return AppendPartial(nil, p)
	}
	allocs := func(data []byte) float64 {
		return testing.AllocsPerRun(20, func() {
			if _, err := DecodePartial(data); err != nil {
				t.Fatal(err)
			}
		})
	}
	const hits = 50
	// Bare hits: the strings all live in one copy, so the count does not
	// grow with the hits at all.
	if bare := allocs(build(hits, false)); bare > 6 {
		t.Errorf("decoding %d bare hits allocates %.0f times, want a constant (<= 6)", hits, bare)
	}
	// Rich hits carry 3 terms, a snippet text and 2 spans each — 8 fields
	// beyond the path — and may cost 3 allocations: terms slice, snippet,
	// highlights slice.
	if rich := allocs(build(hits, true)); rich > 3*hits+6 {
		t.Errorf("decoding %d rich hits allocates %.0f times, want <= %d (3 per hit)", hits, rich, 3*hits+6)
	}
}

// FuzzPartialDecode: no input makes the decoder panic or hang, and any
// input it accepts re-encodes to a partial that decodes to the same value
// (the encoding itself need not be unique: uvarints may be padded).
func FuzzPartialDecode(f *testing.F) {
	// The checked-in corpus (testdata/fuzz/FuzzPartialDecode) holds the
	// shapes the unit tests reject; this seed follows the layout if it moves.
	f.Add(AppendPartial(nil, samplePartial()))
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := DecodePartial(data)
		if err != nil {
			return
		}
		again, err := DecodePartial(AppendPartial(nil, p))
		if err != nil {
			t.Fatalf("re-encoding an accepted partial does not decode: %v", err)
		}
		if !equalPartials(p, again) {
			t.Fatalf("decode/encode/decode changed the partial:\n first %+v\nsecond %+v", p, again)
		}
	})
}

// equalPartials compares by score bits, so a NaN score (which the fuzzer
// finds at once, and DeepEqual calls unequal to itself) compares equal.
func equalPartials(a, b *Partial) bool {
	if len(a.Hits) != len(b.Hits) || len(a.Partitions) != len(b.Partitions) {
		return false
	}
	for i := range a.Hits {
		if math.Float64bits(a.Hits[i].Score) != math.Float64bits(b.Hits[i].Score) {
			return false
		}
	}
	for i := range a.Partitions {
		if math.Float64bits(a.Partitions[i].DurationUS) != math.Float64bits(b.Partitions[i].DurationUS) {
			return false
		}
	}
	strip := func(p *Partial) *Partial {
		c := *p
		c.Hits = append([]desksearch.Hit(nil), p.Hits...)
		for i := range c.Hits {
			c.Hits[i].Score = 0
		}
		c.Partitions = append([]PartitionStat(nil), p.Partitions...)
		for i := range c.Partitions {
			c.Partitions[i].DurationUS = 0
		}
		return &c
	}
	return reflect.DeepEqual(strip(a), strip(b))
}
