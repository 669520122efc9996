package main

import (
	"bytes"
	"cmp"
	"fmt"
	"hash/fnv"
	"math/rand"
	"slices"
	"strings"
	"time"

	"desksearch/internal/corpus"
	"desksearch/internal/vfs"
)

// corpusRoot is the directory of the MemFS the corpus lives under.
const corpusRoot = "."

// dataset is the run's input: the synthetic corpus in memory plus the
// vocabulary the op stream draws its terms from.
type dataset struct {
	fs      *vfs.MemFS
	vocab   []string
	files   []corpus.FileStat // ascending path order
	bytes   int64
	digest  string
	genTime time.Duration
	// small lists the indices (into files) an update round may touch:
	// every file but the five large ones, so rounds cost about the same.
	small []int
}

// makeDataset generates the corpus at the given scale of the paper's
// corpus (1/32 for measured runs).
//
// The corpus does not depend on the run's seed; the op stream does. Two corpora of this size from different seeds differ
// by up to 15% in index size and 25% in tail latency (which words the
// five large files draw decides), more than any bound here, and the
// driver gives every run another seed: a seeded corpus would bury the
// program's changes under the generator's.
func makeDataset(scale float64) (*dataset, error) {
	t0 := time.Now()
	spec := corpus.PaperSpec().Scale(scale) // PaperSpec fixes Seed
	fs := vfs.NewMemFS()
	st, err := corpus.Generate(spec, fs)
	if err != nil {
		return nil, fmt.Errorf("generating corpus: %w", err)
	}
	d := &dataset{fs: fs, files: st.Files, bytes: st.TotalBytes}
	for _, w := range corpus.BuildVocabulary(spec) {
		// The random vocabulary can hold the query grammar's keywords;
		// a query made of them would be refused, and no op may fail.
		if w != "and" && w != "or" && w != "not" {
			d.vocab = append(d.vocab, w)
		}
	}
	slices.SortFunc(d.files, func(a, b corpus.FileStat) int { return strings.Compare(a.Path, b.Path) })
	h := fnv.New64a()
	bySize := make([]int, len(d.files))
	for i, f := range d.files {
		fmt.Fprintf(h, "%s\x00%d\n", f.Path, f.Size)
		bySize[i] = i
	}
	d.digest = fmt.Sprintf("%d/%d/%016x", len(d.files), d.bytes, h.Sum64())
	slices.SortStableFunc(bySize, func(a, b int) int { return cmp.Compare(d.files[b].Size, d.files[a].Size) })
	d.small = bySize[min(spec.LargeFiles, len(bySize)-1):]
	slices.Sort(d.small)
	d.genTime = time.Since(t0)
	return d, nil
}

// addedDir is where update rounds put the files they add.
const addedDir = "bench-added"

// plantedToken is longer than any vocabulary word, so only files an
// update round adds contain it.
const plantedToken = "zzbenchplantedtoken"

// round is one seeded rewrite of a tenth of the corpus: 6% of the files
// modified, 2% deleted, 2% added. undo restores the corpus content.
type round struct {
	modified, deleted, added []string
	// deletedTerm[i] is a term deleted[i] contained.
	deletedTerm []string
	original    map[string][]byte
}

func (r *round) changed() int { return len(r.modified) + len(r.deleted) + len(r.added) }

// applyRound rewrites the files of round number n in d.fs. Like the
// corpus, a round is the same in every run: which files it picks decides
// how many bytes an update re-extracts, and files/s must not move with
// the run's seed.
func (d *dataset) applyRound(n int) (*round, error) {
	rng := rand.New(rand.NewSource(0x5eed0000 + int64(n)))
	perm := rng.Perm(len(d.small))
	pick := func(i int) string { return d.files[d.small[perm[i]]].Path }
	nMod := max(1, len(d.files)*6/100)
	nDel := max(1, len(d.files)*2/100)
	nAdd := nDel
	r := &round{original: make(map[string][]byte)}
	// Content comes from other files of the corpus, so rewritten files
	// keep the corpus's term distribution,
	// and from files this round leaves alone, so they are there to read.
	touched := nMod + nDel
	donor := func() ([]byte, error) { return d.fs.ReadFile(pick(touched + rng.Intn(len(perm)-touched))) }
	for i := 0; i < nMod; i++ {
		p := pick(i)
		old, err := d.fs.ReadFile(p)
		if err != nil {
			return nil, err
		}
		data, err := donor()
		if err != nil {
			return nil, err
		}
		r.original[p] = old
		r.modified = append(r.modified, p)
		if err := d.fs.WriteFile(p, append(slices.Clone(data), " rewritten\n"...)); err != nil {
			return nil, err
		}
	}
	for i := nMod; i < nMod+nDel; i++ {
		p := pick(i)
		old, err := d.fs.ReadFile(p)
		if err != nil {
			return nil, err
		}
		r.original[p] = old
		r.deleted = append(r.deleted, p)
		r.deletedTerm = append(r.deletedTerm, firstWord(old))
		if err := d.fs.Remove(p); err != nil {
			return nil, err
		}
	}
	for i := 0; i < nAdd; i++ {
		data, err := donor()
		if err != nil {
			return nil, err
		}
		p := fmt.Sprintf("%s/f%04d.txt", addedDir, i)
		r.added = append(r.added, p)
		if err := d.fs.WriteFile(p, append(slices.Clone(data), (" "+plantedToken+"\n")...)); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// undo puts the corpus content back as it was before the round.
func (d *dataset) undo(r *round) error {
	for p, data := range r.original {
		if err := d.fs.WriteFile(p, data); err != nil {
			return err
		}
	}
	if len(r.added) > 0 {
		return d.fs.Remove(addedDir)
	}
	return nil
}

// firstWord returns the first word of three or more letters near the
// start of data (the corpus is plain words separated by white space).
func firstWord(data []byte) string {
	fields := bytes.Fields(data[:min(len(data), 512)])
	for _, w := range fields[:max(len(fields)-1, 0)] { // the last one may be cut short
		if len(w) >= 3 {
			return string(w)
		}
	}
	return ""
}
