// Package corpus generates the synthetic benchmark corpus.
//
// The paper's benchmark is ≈51,000 ASCII text files totalling ≈869 MB —
// "many small files and five large text files", produced by extracting plain
// text from word-processor documents. That corpus is not available, so this
// package builds a statistically equivalent one: a deterministic generator
// parameterized by file count, total size, small/large mix, vocabulary size,
// and Zipfian term skew.
//
// Two products are offered from the same Spec and seed:
//
//   - Generate materializes real files (through any Writer);
//   - Describe lays out the same files (paths and sizes) without writing
//     any content.
package corpus

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
)

// Spec describes a synthetic corpus. The zero value is not useful; start
// from PaperSpec (Scale it for tests) and adjust.
type Spec struct {
	// Files is the total number of files, including the large ones.
	Files int
	// TotalBytes is the aggregate corpus size.
	TotalBytes int64
	// LargeFiles is the number of outsized files (the paper has five).
	LargeFiles int
	// LargeBytesFraction is the fraction of TotalBytes carried by the
	// large files.
	LargeBytesFraction float64
	// VocabSize is the number of distinct words available to the generator.
	VocabSize int
	// ZipfS is the Zipf skew (> 1); larger means more repetition.
	ZipfS float64
	// MinTermLen and MaxTermLen bound generated word lengths.
	MinTermLen, MaxTermLen int
	// FilesPerDir controls directory tree shape.
	FilesPerDir int
	// DirFanout is the number of subdirectories per directory level.
	DirFanout int
	// Seed makes generation deterministic.
	Seed int64
}

// PaperSpec returns the shape of the paper's benchmark: ≈51,000 files,
// ≈869 MB, five large files. Generating it materializes ≈869 MB — use
// Scale for tests.
func PaperSpec() Spec {
	return Spec{
		Files:              51_000,
		TotalBytes:         869 << 20,
		LargeFiles:         5,
		LargeBytesFraction: 0.30,
		VocabSize:          150_000,
		ZipfS:              1.20,
		MinTermLen:         2,
		MaxTermLen:         12,
		FilesPerDir:        64,
		DirFanout:          8,
		Seed:               20100511, // the report's publication date
	}
}

// Scale returns a copy of s with file count and byte volume scaled by f.
// Vocabulary scales with the square root of f (Heaps-like growth), and the
// large-file count never exceeds the total file count.
func (s Spec) Scale(f float64) Spec {
	out := s
	out.Files = maxInt(1, int(float64(s.Files)*f))
	out.TotalBytes = int64(float64(s.TotalBytes) * f)
	if out.TotalBytes < 1<<10 {
		out.TotalBytes = 1 << 10
	}
	out.VocabSize = maxInt(64, int(float64(s.VocabSize)*math.Sqrt(f)))
	if out.LargeFiles > out.Files/2 {
		out.LargeFiles = out.Files / 2
	}
	return out
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// normalize fills defaults for zero fields.
func (s Spec) normalize() Spec {
	if s.Files <= 0 {
		s.Files = 1
	}
	if s.LargeFiles < 0 {
		s.LargeFiles = 0
	}
	if s.LargeFiles > s.Files {
		s.LargeFiles = s.Files
	}
	if s.TotalBytes <= 0 {
		s.TotalBytes = 1 << 20
	}
	if s.LargeBytesFraction < 0 || s.LargeBytesFraction >= 1 || s.LargeFiles == 0 {
		s.LargeBytesFraction = 0
	}
	if s.VocabSize <= 0 {
		s.VocabSize = 1000
	}
	if s.ZipfS <= 1 {
		s.ZipfS = 1.2
	}
	if s.MinTermLen <= 0 {
		s.MinTermLen = 2
	}
	if s.MaxTermLen < s.MinTermLen {
		s.MaxTermLen = s.MinTermLen + 8
	}
	if s.FilesPerDir <= 0 {
		s.FilesPerDir = 64
	}
	if s.DirFanout <= 1 {
		s.DirFanout = 8
	}
	return s
}

// FileStat is the layout of one corpus file.
type FileStat struct {
	// Path is the slash-separated file path within the corpus root.
	Path string
	// Size is the file's described size. Generate writes whole words,
	// each followed by a space or a newline, until the content reaches
	// it, so a written file runs past Size by up to one word and its
	// separator.
	Size int64
}

// Stats is the layout of a corpus: its files and their total described
// size. TotalBytes sums the files' Size, so the bytes Generate writes may
// exceed it by up to one word and its separator per file.
type Stats struct {
	Spec       Spec
	Files      []FileStat
	TotalBytes int64
}

// Describe lays out the spec's files without generating any content. The
// same seed yields file sizes identical to Generate's.
func Describe(spec Spec) Stats {
	spec = spec.normalize()
	rng := rand.New(rand.NewSource(spec.Seed))
	sizes := layoutSizes(spec, rng)
	stats := Stats{Spec: spec, Files: make([]FileStat, len(sizes))}
	for i, size := range sizes {
		stats.Files[i] = FileStat{Path: filePath(spec, i), Size: size}
		stats.TotalBytes += size
	}
	return stats
}

// layoutSizes draws the per-file sizes. Index 0..LargeFiles-1 are the
// large files; the rest are small files with exponential spread.
func layoutSizes(spec Spec, rng *rand.Rand) []int64 {
	sizes := make([]int64, spec.Files)
	largeTotal := int64(float64(spec.TotalBytes) * spec.LargeBytesFraction)
	smallTotal := spec.TotalBytes - largeTotal
	smallFiles := spec.Files - spec.LargeFiles

	for i := 0; i < spec.LargeFiles; i++ {
		sizes[i] = largeTotal / int64(spec.LargeFiles)
	}
	if smallFiles > 0 {
		weights := make([]float64, smallFiles)
		var sum float64
		for i := range weights {
			w := 0.15 + rng.ExpFloat64()
			if w > 6 {
				w = 6
			}
			weights[i] = w
			sum += w
		}
		for i, w := range weights {
			size := int64(float64(smallTotal) * w / sum)
			if size < 64 {
				size = 64
			}
			sizes[spec.LargeFiles+i] = size
		}
	}
	return sizes
}

// filePath places file i in the directory tree. Large files sit at the
// root, like the paper's five big extractions; small files are spread over
// a DirFanout-ary tree with FilesPerDir files per leaf. Every file is
// plain text, as the paper's extracted corpus was.
func filePath(spec Spec, i int) string {
	if i < spec.LargeFiles {
		return fmt.Sprintf("large-%d.txt", i)
	}
	n := i - spec.LargeFiles
	dir := n / spec.FilesPerDir
	// Express dir in base DirFanout, one path element per digit.
	path := ""
	for d := dir; ; d /= spec.DirFanout {
		path = fmt.Sprintf("d%02d/%s", d%spec.DirFanout, path)
		if d < spec.DirFanout {
			break
		}
	}
	return fmt.Sprintf("%sfile-%06d.txt", path, n)
}

// Writer is where Generate puts the corpus: vfs.MemFS in memory, Dir on
// disk.
type Writer interface {
	// WriteFile creates or replaces the named file (slash-separated, relative
	// to the corpus root), creating parent directories as needed.
	WriteFile(name string, data []byte) error
}

// Dir is a Writer into a host directory.
type Dir string

// WriteFile implements Writer.
func (d Dir) WriteFile(name string, data []byte) error {
	p := filepath.Join(string(d), filepath.FromSlash(name))
	if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
		return err
	}
	return os.WriteFile(p, data, 0o644)
}

// Generate writes the corpus through w. It returns the same layout as
// Describe: described sizes, which each written file may run past by up
// to one word (see FileStat.Size).
func Generate(spec Spec, w Writer) (Stats, error) {
	spec = spec.normalize()
	stats := Describe(spec)
	vocab := BuildVocabulary(spec)
	// Content RNG is separate from the layout RNG so Describe and Generate
	// agree on sizes.
	rng := rand.New(rand.NewSource(spec.Seed ^ 0x5eed_c0de))
	zipf := rand.NewZipf(rng, spec.ZipfS, 1, uint64(spec.VocabSize-1))
	for i := range stats.Files {
		f := &stats.Files[i]
		data := renderFile(f.Size, vocab, zipf)
		if err := w.WriteFile(f.Path, data); err != nil {
			return stats, fmt.Errorf("corpus: writing %s: %w", f.Path, err)
		}
	}
	return stats, nil
}

// BuildVocabulary returns the deterministic word list for the spec.
// Words are lower-case ASCII, unique, with lengths in the configured range.
func BuildVocabulary(spec Spec) []string {
	spec = spec.normalize()
	rng := rand.New(rand.NewSource(spec.Seed ^ 0x7e57_ab1e))
	words := make([]string, spec.VocabSize)
	seen := make(map[string]bool, spec.VocabSize)
	for i := range words {
		for {
			w := randomWord(rng, spec.MinTermLen, spec.MaxTermLen)
			if !seen[w] {
				seen[w] = true
				words[i] = w
				break
			}
		}
	}
	return words
}

func randomWord(rng *rand.Rand, minLen, maxLen int) string {
	n := minLen + rng.Intn(maxLen-minLen+1)
	b := make([]byte, n)
	for i := range b {
		b[i] = byte('a' + rng.Intn(26))
	}
	return string(b)
}

// renderFile produces a file body of about size bytes: Zipf-drawn words
// separated by spaces with occasional newlines.
func renderFile(size int64, vocab []string, zipf *rand.Zipf) []byte {
	budget := int(size)
	body := make([]byte, 0, budget+16)
	col := 0
	for len(body) < budget {
		w := vocab[zipf.Uint64()]
		body = append(body, w...)
		col += len(w) + 1
		if col >= 72 {
			body = append(body, '\n')
			col = 0
		} else {
			body = append(body, ' ')
		}
	}
	return body
}
