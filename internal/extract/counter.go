package extract

const (
	// counterInitialSlots must be a power of two so the probe mask works.
	counterInitialSlots = 16
	// counterMaxLoadNum/counterMaxLoadDen is the load factor above which
	// the table grows (7/8 keeps probes short while wasting little memory).
	counterMaxLoadNum = 7
	counterMaxLoadDen = 8
	// counterMaxRetained bounds the entries a counter carries from file to
	// file. The table holds the current file's terms plus those of earlier
	// files (kept so their key strings are reused); once it holds more
	// than this many, the next Reset drops them all, so a counter's memory
	// is bounded by max(counterMaxRetained, one file's vocabulary).
	counterMaxRetained = 1 << 16
)

// counter is an extractor's term table, the paper's per-file
// duplicate-elimination set: an open-addressing, linearly probed multiset
// of terms, keyed by FNV-1 as the paper's was, that is filled from byte
// views (Add), reset between files, and turned into one file's term block
// by Counts or Positions. It allocates per file, not per term occurrence:
//
//   - the probe compares a stored key with the byte view in place, so a
//     term already in the table costs no allocation;
//   - entries carry the epoch (file) that last saw them, so Reset is a
//     counter increment, and a term met in an earlier file keeps its key
//     string — every block an extractor emits shares one string per term;
//   - the probe starts from the hash the scanner computed as it read the
//     term, so a term's bytes are walked once before the comparison;
//   - positions are not gathered per term while scanning: the counter
//     records which term each token was, and Positions lays them out in
//     one buffer, term by term, afterwards.
type counter struct {
	entries []counterEntry
	n       int    // occupied slots: the current file's terms and stale ones
	epoch   uint32 // the current file; never 0
	// live lists the slots of the current file's terms in first-occurrence
	// order; a term's index in it is its ordinal.
	live []uint32
	// seq[p] is the ordinal of the term at token position p. Only a
	// positional counter records it.
	seq        []uint32
	positional bool
	// total counts every occurrence recorded since Reset — the file's
	// token length, which BM25 normalizes document scores by.
	total uint32
}

type counterEntry struct {
	key   string
	hash  uint32 // FNV-1 of key: probes compare it first, grow reuses it
	epoch uint32 // file that last saw the term; 0 = empty slot
	ord   uint32 // index in live, valid while epoch is current
	count uint32 // occurrences in that file
}

// newCounter returns a counter sized for about capacity distinct terms.
// A positional counter also records each occurrence's token position (its
// ordinal among the Adds since Reset) for Positions to return.
func newCounter(capacity int, positional bool) *counter {
	slots := counterInitialSlots
	for slots*counterMaxLoadNum/counterMaxLoadDen < capacity {
		slots *= 2
	}
	return &counter{entries: make([]counterEntry, slots), epoch: 1, positional: positional}
}

// Total returns the number of occurrences recorded since the last Reset,
// duplicates included — the sum of all counts.
func (c *counter) Total() uint32 { return c.total }

// Reset starts the next file. Blocks already returned stay valid: they
// share only immutable key strings with the counter.
func (c *counter) Reset() {
	c.epoch++
	if c.n > counterMaxRetained || c.epoch == 0 {
		clear(c.entries)
		c.n, c.epoch = 0, 1
	}
	c.live, c.seq, c.total = c.live[:0], c.seq[:0], 0
}

// Add records one occurrence of term, whose FNV-1 hash is hash (the
// scanner computes it as it classifies the bytes, tokenize.ScanBytes). The
// term is only read: the view may be reused by the caller as soon as Add
// returns.
func (c *counter) Add(term []byte, hash uint32) {
	mask := uint32(len(c.entries) - 1)
	i := hash & mask
	e := &c.entries[i]
	for e.epoch != 0 && (e.hash != hash || e.key != string(term)) {
		i = (i + 1) & mask
		e = &c.entries[i]
	}
	if e.epoch != c.epoch {
		if e.epoch == 0 {
			if (c.n+1)*counterMaxLoadDen > len(c.entries)*counterMaxLoadNum {
				c.grow()
				c.Add(term, hash)
				return
			}
			e.key, e.hash = string(term), hash
			c.n++
		}
		e.epoch, e.ord, e.count = c.epoch, uint32(len(c.live)), 0
		c.live = append(c.live, i)
	}
	e.count++
	c.total++
	if c.positional {
		c.seq = append(c.seq, e.ord)
	}
}

// Counts returns the current file's distinct terms in first-occurrence
// order and, parallel to them, how often each occurred. Both slices are
// freshly allocated and the caller's to keep.
func (c *counter) Counts() (terms []string, counts []uint32) {
	terms = make([]string, len(c.live))
	counts = make([]uint32, len(c.live))
	for ord, i := range c.live {
		terms[ord], counts[ord] = c.entries[i].key, c.entries[i].count
	}
	return terms, counts
}

// Positions returns the current file's distinct terms in first-occurrence
// order and their ascending token positions as two flat columns: pos holds
// every position, term by term, and ends[i] is where the run of terms[i]
// ends in it (it starts where the run before ends). One counting-sort pass
// fills pos: ends first holds each run's start and is advanced as the
// run's positions are written, so it ends as the runs' ends. All three
// slices are freshly allocated and the caller's to keep. Only for a
// positional counter.
func (c *counter) Positions() (terms []string, ends, pos []uint32) {
	terms = make([]string, len(c.live))
	ends = make([]uint32, len(c.live))
	pos = make([]uint32, len(c.seq))
	start := uint32(0)
	for ord, i := range c.live {
		e := &c.entries[i]
		terms[ord], ends[ord] = e.key, start
		start += e.count
	}
	for p, ord := range c.seq {
		pos[ends[ord]] = uint32(p)
		ends[ord]++
	}
	return terms, ends, pos
}

// grow doubles the table. Stale entries move along with the live ones;
// Reset is what drops them.
func (c *counter) grow() {
	old := c.entries
	c.entries = make([]counterEntry, len(old)*2)
	mask := uint32(len(c.entries) - 1)
	for _, e := range old {
		if e.epoch == 0 {
			continue
		}
		i := e.hash & mask
		for c.entries[i].epoch != 0 {
			i = (i + 1) & mask
		}
		c.entries[i] = e
		if e.epoch == c.epoch {
			c.live[e.ord] = i
		}
	}
}
