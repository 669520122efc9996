package segment

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"desksearch/internal/index"
	"desksearch/internal/postings"
)

// countsEqual reports whether got holds want's IDs and frequencies; what
// got carries beyond them is not its business.
func countsEqual(got, want *postings.List) bool {
	if got == nil || want == nil || got.Len() != want.Len() {
		return false
	}
	for i, id := range want.IDs() {
		if got.IDs()[i] != id || got.CountAt(i) != want.CountAt(i) {
			return false
		}
	}
	return true
}

// cacheEntries returns how many entries the cache holds and the sum of
// their recorded sizes, which must be what Bytes reports.
func cacheEntries(c *Cache) (n int, bytes int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.lru.Len() != len(c.entries) {
		panic("segment: cache list and map disagree")
	}
	for _, el := range c.entries {
		bytes += el.Value.(*cacheEntry).bytes
	}
	return len(c.entries), bytes
}

// TestCountsDecodesNoPositions walks the two tiers of one block: Counts
// decodes IDs and frequencies only, the first Lookup upgrades the cache's
// one entry in place, and from then on every caller rides the full list.
func TestCountsDecodesNoPositions(t *testing.T) {
	ix := buildIndex(t, 400, true)
	cache := NewCache(0)
	r, err := Open(writeSegment(t, ix), cache)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	want := ix.Lookup("even")

	c := r.Counts("even")
	if c.HasPositions() || !countsEqual(c, want) {
		t.Fatalf("Counts: positions=%v, equal=%v", c.HasPositions(), countsEqual(c, want))
	}
	if d, p := r.BlockDecodes(), r.PositionDecodes(); d != 1 || p != 0 {
		t.Fatalf("after Counts: %d block decodes, %d position decodes; want 1, 0", d, p)
	}
	countsBytes := cache.Bytes()
	if r.Counts("even") != c {
		t.Fatal("second Counts did not come from the cache")
	}
	it := r.Iterator("even")
	if _, streamed := it.(*postings.BlockIterator); streamed {
		t.Fatal("Iterator streamed the raw block although a counts-only entry is cached")
	}
	if d := r.BlockDecodes(); d != 1 {
		t.Fatalf("cache hits decoded: %d block decodes, want 1", d)
	}

	full := r.Lookup("even")
	if !listsEqual(full, want) {
		t.Fatal("Lookup after Counts differs from the source list")
	}
	if d, p := r.BlockDecodes(), r.PositionDecodes(); d != 2 || p != 1 {
		t.Fatalf("after the upgrade: %d block decodes, %d position decodes; want 2, 1", d, p)
	}
	n, sum := cacheEntries(cache)
	if n != 1 {
		t.Fatalf("cache holds %d entries for one term, want 1", n)
	}
	if cache.Bytes() != sum || cache.Bytes() != listBytes(full) || cache.Bytes() <= countsBytes {
		t.Fatalf("cache charges %d bytes (entries sum to %d); full list is %d, counts-only was %d",
			cache.Bytes(), sum, listBytes(full), countsBytes)
	}
	if got := r.ResidentBytes(); got < cache.Bytes() {
		t.Fatalf("reader reports %d resident bytes, its cache share alone is %d", got, cache.Bytes())
	}

	// The richer tier serves everyone; nothing downgrades it.
	if r.Counts("even") != full || r.Lookup("even") != full {
		t.Fatal("a full entry did not answer Counts and Lookup")
	}
	if d, p := r.BlockDecodes(), r.PositionDecodes(); d != 2 || p != 1 {
		t.Fatalf("full entry re-decoded: %d block decodes, %d position decodes", d, p)
	}

	// A non-positional segment has one tier: Counts and Lookup share it.
	flat, err := Open(writeSegment(t, buildIndex(t, 400, false)), NewCache(0))
	if err != nil {
		t.Fatal(err)
	}
	defer flat.Close()
	if flat.Counts("even") != flat.Lookup("even") {
		t.Fatal("non-positional segment decoded one block twice")
	}
	if d, p := flat.BlockDecodes(), flat.PositionDecodes(); d != 1 || p != 0 {
		t.Fatalf("non-positional segment: %d block decodes, %d position decodes; want 1, 0", d, p)
	}
}

// TestCountsVerifiesLikeLookup flips every byte of one posting block in
// turn: the counts tier must refuse each one, exactly as the full decode
// does — stopping before the positions section skips no verification.
func TestCountsVerifiesLikeLookup(t *testing.T) {
	ix := buildIndex(t, 300, true)
	var buf bytes.Buffer
	if err := Write(&buf, ix); err != nil {
		t.Fatal(err)
	}
	pristine := buf.Bytes()
	clean, err := OpenBytes("clean", pristine, nil)
	if err != nil {
		t.Fatal(err)
	}
	e := clean.at(clean.find("even"))
	start, end := int(clean.blocksOff+e.off), int(clean.blocksOff+e.off+e.size)
	for i := start; i < end; i++ {
		img := append([]byte(nil), pristine...)
		img[i] ^= 0x41
		r, err := OpenBytes("flipped", img, nil)
		if err != nil {
			t.Fatalf("byte %d: open: %v", i, err)
		}
		if r.Counts("even") != nil {
			t.Fatalf("byte %d: Counts accepted a corrupt block", i)
		}
		if r.Err() == nil || r.Corruptions() != 1 {
			t.Fatalf("byte %d: corruption not recorded (Err %v, count %d)", i, r.Err(), r.Corruptions())
		}
		if r.Counts("common") == nil || r.Corruptions() != 1 {
			t.Fatalf("byte %d: an untouched block stopped answering", i)
		}
	}
}

// TestConcurrentTiersShareOneEntry races Counts, Lookup and Iterator on
// one term (run under -race in CI): whatever the interleaving, the cache
// ends with exactly one entry for the block, at the full tier, and its
// byte count is the entry's.
func TestConcurrentTiersShareOneEntry(t *testing.T) {
	ix := buildIndex(t, 400, true)
	want := ix.Lookup("common")
	for round := 0; round < 20; round++ {
		cache := NewCache(0)
		r, err := Open(writeSegment(t, ix), cache)
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for g := 0; g < 9; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				switch g % 3 {
				case 0:
					if l := r.Counts("common"); !countsEqual(l, want) {
						t.Error("Counts differs from the source list")
					}
				case 1:
					if l := r.Lookup("common"); !listsEqual(l, want) {
						t.Error("Lookup differs from the source list")
					}
				default:
					it, n := r.Iterator("common"), 0
					for it.Next() {
						n++
					}
					if n != want.Len() {
						t.Errorf("Iterator yielded %d postings, want %d", n, want.Len())
					}
				}
			}(g)
		}
		wg.Wait()
		n, sum := cacheEntries(cache)
		if n != 1 {
			t.Fatalf("round %d: %d cache entries for one term, want 1", round, n)
		}
		if got := cache.Bytes(); got != sum || got != listBytes(r.Lookup("common")) || got != r.cached.Load() {
			t.Fatalf("round %d: cache %d bytes, entries %d, full list %d, reader share %d",
				round, got, sum, listBytes(r.Lookup("common")), r.cached.Load())
		}
		r.Close()
		if cache.Bytes() != 0 {
			t.Fatalf("round %d: %d bytes left after the reader closed", round, cache.Bytes())
		}
	}
}

// TestCacheBytesMatchHeap holds the cache's accounting to the allocator's:
// a cache filled with counts-only entries must grow the heap by what
// Bytes says, within 10%. The lists are short, as most of a real
// dictionary's are, so the per-entry overhead is most of the sum and an
// accounting that forgets it is off several times over.
func TestCacheBytesMatchHeap(t *testing.T) {
	bld := index.NewBuilder(true)
	const terms = 4000
	for f := 0; f < 64; f++ {
		var names []string
		var ends, pos []uint32
		for k := 0; k < terms; k++ {
			// Term k is in 1 + k%16 of the 64 files, twice in some.
			if f%(64/(1+k%16)) != 0 {
				continue
			}
			names = append(names, fmt.Sprintf("t%04d", k))
			pos = append(pos, uint32(len(names)))
			if (f+k)%3 == 0 {
				pos = append(pos, uint32(len(names))+1000)
			}
			ends = append(ends, uint32(len(pos)))
		}
		bld.AddBlockPositional(postings.FileID(f), names, ends, pos)
	}
	ix := bld.Index()
	var buf bytes.Buffer
	if err := Write(&buf, ix); err != nil {
		t.Fatal(err)
	}
	cache := NewCache(0)
	r, err := OpenBytes("mem", buf.Bytes(), cache)
	if err != nil {
		t.Fatal(err)
	}
	names := termsFrom(ix, "")

	heap := func() uint64 {
		runtime.GC()
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	before := heap()
	for _, name := range names {
		if r.Counts(name) == nil {
			t.Fatalf("Counts(%q) = nil", name)
		}
	}
	grown := int64(heap() - before)
	charged := cache.Bytes()
	if n, _ := cacheEntries(cache); n != len(names) || r.PositionDecodes() != 0 {
		t.Fatalf("%d entries for %d terms, %d position decodes", n, len(names), r.PositionDecodes())
	}
	if diff := grown - charged; diff > charged/10 || diff < -charged/10 {
		t.Fatalf("heap grew %d bytes for %d entries, cache charges %d (%+.1f%%): want within 10%%",
			grown, len(names), charged, 100*float64(diff)/float64(charged))
	}
	t.Logf("%d counts-only entries: heap +%d B, charged %d B (%+.1f%%)",
		len(names), grown, charged, 100*float64(grown-charged)/float64(charged))
	// Everything live at the first reading stays live through the second.
	runtime.KeepAlive(ix)
	runtime.KeepAlive(buf)
	runtime.KeepAlive(r)
}
