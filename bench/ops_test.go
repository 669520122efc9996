package main

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"desksearch"
)

func testVocab() []string {
	v := make([]string, 500)
	for i := range v {
		v[i] = fmt.Sprintf("w%c%c%d", 'a'+i%26, 'a'+(i/26)%26, i)
	}
	return v
}

func TestOpStreamIsDeterministic(t *testing.T) {
	v := testVocab()
	if a, b := opDigest(7, v), opDigest(7, v); a != b {
		t.Errorf("same seed gave digests %s and %s", a, b)
	}
	if a, b := opDigest(7, v), opDigest(8, v); a == b {
		t.Errorf("seeds 7 and 8 gave the same digest %s", a)
	}
	a, b := newStream(7, v).take(200), newStream(7, v).take(200)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("op %d differs between two streams of one seed: %+v vs %+v", i, a[i], b[i])
		}
	}
}

// Slices must be consecutive and disjoint: whatever sizes are taken, in
// whatever mix of take and takeClass, concatenated they are the
// generator's sequence with nothing repeated or skipped.
func TestSlicesNeverOverlap(t *testing.T) {
	v := testVocab()
	want := newStream(3, v).take(1000)
	s := newStream(3, v)
	var got []op
	got = append(got, s.take(10)...)
	got = append(got, s.take(1)...)
	got = append(got, s.take(250)...)
	before := s.issued
	bm := s.takeClass(classBM25, 5)
	if len(bm) != 5 {
		t.Fatalf("takeClass returned %d ops, want 5", len(bm))
	}
	for _, o := range bm {
		if o.Class != classBM25 {
			t.Errorf("takeClass(bm25) returned a %s op", o.Class)
		}
	}
	// takeClass consumed a run of the stream; its picks are that run's
	// BM25 ops, in order.
	var picked []op
	for _, o := range want[before:s.issued] {
		if o.Class == classBM25 {
			picked = append(picked, o)
		}
	}
	if len(picked) != 5 {
		t.Fatalf("the consumed run holds %d bm25 ops, want 5", len(picked))
	}
	for i := range bm {
		if bm[i] != picked[i] {
			t.Errorf("takeClass pick %d = %+v, want %+v", i, bm[i], picked[i])
		}
	}
	got = append(got, want[before:s.issued]...)
	got = append(got, s.take(100)...)
	if s.issued != len(got) {
		t.Fatalf("stream says %d ops issued, %d were handed out", s.issued, len(got))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("op %d of the concatenated slices is %+v, the generator's op %d is %+v", i, got[i], i, want[i])
		}
	}
}

func TestMixCoversEveryClass(t *testing.T) {
	seen := make(map[class]int)
	for _, o := range newStream(1, testVocab()).take(2000) {
		seen[o.Class]++
		if o.Limit < 10 || o.Limit >= 50 {
			t.Fatalf("%s op has limit %d", o.Class, o.Limit)
		}
		if _, err := o.query(); err != nil {
			t.Fatalf("%s op %q: %v", o.Class, o.Query, err)
		}
		if o.Class != classSuggest {
			if _, err := desksearch.ParseQuery(o.Query); err != nil {
				t.Fatalf("%s op %q does not parse: %v", o.Class, o.Query, err)
			}
		}
	}
	for _, c := range classes {
		if seen[c] == 0 {
			t.Errorf("2000 ops hold no %s op", c)
		}
	}
}

// fakeTarget fails the ops whose index in the pass is in errs.
type fakeTarget struct {
	n    int
	errs map[int]error
}

func (f *fakeTarget) do(context.Context, op, *recorder, int, int) error {
	f.n++
	return f.errs[f.n-1]
}
func (f *fakeTarget) fetch(context.Context, op) (answer, error) { return answer{}, nil }

func TestFailureAccounting(t *testing.T) {
	refusal := &desksearch.QueryError{Code: desksearch.CodePrefixTooBroad, Err: desksearch.ErrPrefixTooBroad}
	ft := &fakeTarget{errs: map[int]error{
		2: refusal,
		5: &statusError{status: 400},
		7: &statusError{status: 504},
		8: context.DeadlineExceeded,
	}}
	res := runPass(context.Background(), ft, newStream(1, testVocab()).take(10), 1, nil, 0)
	if len(res.samples) != 10 || res.failed != 4 || res.refused != 2 {
		t.Errorf("10 ops, 4 failing (2 by rule): got %d samples, %d failed, %d refused", len(res.samples), res.failed, res.refused)
	}
	if !errors.Is(res.firstErr, desksearch.ErrPrefixTooBroad) {
		t.Errorf("first error = %v, want the refusal of op 2", res.firstErr)
	}
	for i, s := range res.samples {
		if s.dur <= 0 || s.class == "" {
			t.Errorf("sample %d was not recorded: %+v", i, s)
		}
	}

	// Several clients still issue every op exactly once.
	ct := &countTarget{}
	res = runPass(context.Background(), ct, newStream(1, testVocab()).take(500), 4, nil, 0)
	if got := ct.n.Load(); got != 500 || len(res.samples) != 500 || res.failed != 0 {
		t.Errorf("4 clients over 500 ops: %d issued, %d samples, %d failed", got, len(res.samples), res.failed)
	}
}

// The measured inputs are pinned; a change to the corpus generator or to
// the frozen op generator must show up here, not as a shifted metric.
func TestPinnedInputs(t *testing.T) {
	d, err := makeDataset(fullSize.scale)
	if err != nil {
		t.Fatal(err)
	}
	for seed := range pinnedOps {
		if err := checkPinned(seed, fullSize.scale, d.digest, opDigest(seed, d.vocab)); err != nil {
			t.Error(err)
		}
	}
	if err := checkPinned(1, fullSize.scale, d.digest, "0000000000000000"); err == nil {
		t.Error("a drifted op stream passed the pin")
	}
	if err := checkPinned(99, fullSize.scale, "1/2/3", opDigest(99, d.vocab)); err == nil {
		t.Error("a drifted corpus passed the pin")
	}
	for _, w := range d.vocab {
		if w == "and" || w == "or" || w == "not" {
			t.Errorf("the query vocabulary holds the keyword %q", w)
		}
	}
}
