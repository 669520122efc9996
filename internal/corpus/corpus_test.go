package corpus

import (
	"strings"
	"testing"
	"testing/quick"

	"desksearch/internal/docfmt"
	"desksearch/internal/tokenize"
	"desksearch/internal/vfs"
)

func testSpec() Spec {
	return Spec{
		Files:              60,
		TotalBytes:         300 << 10,
		LargeFiles:         3,
		LargeBytesFraction: 0.3,
		VocabSize:          2000,
		ZipfS:              1.2,
		MinTermLen:         2,
		MaxTermLen:         10,
		FilesPerDir:        8,
		DirFanout:          4,
		HTMLFraction:       0.15,
		WPFraction:         0.15,
		Seed:               42,
	}
}

func TestDescribeShape(t *testing.T) {
	spec := testSpec()
	stats := Describe(spec)
	if len(stats.Files) != spec.Files {
		t.Fatalf("got %d files, want %d", len(stats.Files), spec.Files)
	}
	// Total bytes within 5% of the requested volume (rounding + minimums).
	lo, hi := spec.TotalBytes*95/100, spec.TotalBytes*105/100
	if stats.TotalBytes < lo || stats.TotalBytes > hi {
		t.Errorf("TotalBytes = %d, want within [%d, %d]", stats.TotalBytes, lo, hi)
	}
	// The large files dominate individually.
	largeSize := stats.Files[0].Size
	for _, f := range stats.Files[spec.LargeFiles:] {
		if f.Size >= largeSize {
			t.Errorf("small file %s (%d bytes) >= large file size %d", f.Path, f.Size, largeSize)
		}
	}
	for _, f := range stats.Files {
		if f.Size <= 0 {
			t.Errorf("%s has size %d", f.Path, f.Size)
		}
		if f.Terms <= 0 {
			t.Errorf("%s has %d terms", f.Path, f.Terms)
		}
		if f.Unique <= 0 || f.Unique > f.Terms {
			t.Errorf("%s unique=%d terms=%d", f.Path, f.Unique, f.Terms)
		}
		if f.Unique > spec.VocabSize {
			t.Errorf("%s unique exceeds vocabulary", f.Path)
		}
	}
}

func TestDescribeDeterministic(t *testing.T) {
	a := Describe(testSpec())
	b := Describe(testSpec())
	if len(a.Files) != len(b.Files) {
		t.Fatal("nondeterministic file count")
	}
	for i := range a.Files {
		if a.Files[i] != b.Files[i] {
			t.Fatalf("file %d differs: %+v vs %+v", i, a.Files[i], b.Files[i])
		}
	}
	spec2 := testSpec()
	spec2.Seed = 43
	c := Describe(spec2)
	same := true
	for i := range a.Files {
		if a.Files[i].Size != c.Files[i].Size {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical size layouts")
	}
}

func TestFilePathsUniqueAndTreeShaped(t *testing.T) {
	stats := Describe(testSpec())
	seen := map[string]bool{}
	for _, f := range stats.Files {
		if seen[f.Path] {
			t.Fatalf("duplicate path %s", f.Path)
		}
		seen[f.Path] = true
		if strings.HasPrefix(f.Path, "large-") {
			continue
		}
		if !strings.Contains(f.Path, "/") {
			t.Errorf("small file %s not in a directory", f.Path)
		}
		if !strings.HasSuffix(f.Path, ".txt") && !strings.HasSuffix(f.Path, ".html") && !strings.HasSuffix(f.Path, ".wp") {
			t.Errorf("unexpected extension: %s", f.Path)
		}
	}
}

func TestGenerateMatchesDescribe(t *testing.T) {
	spec := testSpec()
	fs := vfs.NewMemFS()
	gen, err := Generate(spec, fs)
	if err != nil {
		t.Fatal(err)
	}
	desc := Describe(spec)
	if len(gen.Files) != len(desc.Files) {
		t.Fatal("Generate and Describe disagree on file count")
	}
	for i := range gen.Files {
		if gen.Files[i].Path != desc.Files[i].Path || gen.Files[i].Size != desc.Files[i].Size {
			t.Fatalf("file %d metadata differs: %+v vs %+v", i, gen.Files[i], desc.Files[i])
		}
	}
	// Every described file exists with approximately the described size
	// (format wrappers may shift by a few bytes).
	for _, f := range gen.Files {
		data, err := fs.ReadFile(f.Path)
		if err != nil {
			t.Fatalf("%s: %v", f.Path, err)
		}
		if len(data) == 0 {
			t.Fatalf("%s is empty", f.Path)
		}
		diff := int64(len(data)) - f.Size
		if diff < -64 || diff > 64 {
			t.Errorf("%s: wrote %d bytes, described %d", f.Path, len(data), f.Size)
		}
	}
}

func TestGeneratedContentIsIndexable(t *testing.T) {
	spec := testSpec()
	fs := vfs.NewMemFS()
	stats, err := Generate(spec, fs)
	if err != nil {
		t.Fatal(err)
	}
	vocabSet := make(map[string]bool, spec.VocabSize)
	for _, w := range BuildVocabulary(spec) {
		vocabSet[w] = true
	}
	checked := 0
	for _, f := range stats.Files {
		if f.Size > 32<<10 {
			continue // keep the test fast; large files share the generator
		}
		data, err := fs.ReadFile(f.Path)
		if err != nil {
			t.Fatal(err)
		}
		text := docfmt.Extract(f.Path, data)
		terms := tokenize.Terms(text, tokenize.Default)
		if len(terms) == 0 {
			t.Fatalf("%s produced no terms", f.Path)
		}
		// Every term must come from the vocabulary (formats may split a
		// trailing truncated word; allow the last term to be arbitrary).
		for _, term := range terms[:len(terms)-1] {
			if !vocabSet[term] && !isFormatArtifact(term) {
				t.Fatalf("%s: term %q not in vocabulary", f.Path, term)
			}
		}
		checked++
	}
	if checked < 10 {
		t.Fatalf("only %d files checked", checked)
	}
}

// isFormatArtifact reports format-wrapper tokens ("1", "0" from ".wp 1.0",
// "p" from HTML structure) that legitimately appear outside the vocabulary.
func isFormatArtifact(term string) bool {
	switch term {
	case "0", "1", "p", "wp", "pp", "doctype", "html", "body":
		return true
	}
	return false
}

// TestHeapsApproxTracksMeasured validates the unique-terms model against a
// real generated corpus: per-file modelled unique counts must be within a
// factor of three of measured ones (the model drives simulator costs, where
// shape matters, not exactness).
func TestHeapsApproxTracksMeasured(t *testing.T) {
	spec := testSpec()
	spec.HTMLFraction, spec.WPFraction = 0, 0 // formats perturb term counts
	fs := vfs.NewMemFS()
	stats, err := Generate(spec, fs)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range stats.Files {
		data, err := fs.ReadFile(f.Path)
		if err != nil {
			t.Fatal(err)
		}
		set := make(map[string]bool, 1024)
		tokenize.Scan(data, tokenize.Default, func(term string) { set[term] = true })
		measured := len(set)
		if measured == 0 {
			t.Fatalf("%s: no terms", f.Path)
		}
		ratio := float64(f.Unique) / float64(measured)
		if ratio < 1.0/3 || ratio > 3 {
			t.Errorf("%s: modelled unique %d vs measured %d (ratio %.2f)",
				f.Path, f.Unique, measured, ratio)
		}
	}
}

func TestVocabularyUniqueAndWellFormed(t *testing.T) {
	spec := testSpec()
	vocab := BuildVocabulary(spec)
	if len(vocab) != spec.VocabSize {
		t.Fatalf("vocab size %d, want %d", len(vocab), spec.VocabSize)
	}
	seen := map[string]bool{}
	for _, w := range vocab {
		if seen[w] {
			t.Fatalf("duplicate word %q", w)
		}
		seen[w] = true
		if len(w) < spec.MinTermLen || len(w) > spec.MaxTermLen {
			t.Fatalf("word %q length out of range", w)
		}
		for i := 0; i < len(w); i++ {
			if w[i] < 'a' || w[i] > 'z' {
				t.Fatalf("word %q not lower-case ASCII", w)
			}
		}
	}
}

func TestScale(t *testing.T) {
	base := PaperSpec()
	half := base.Scale(0.5)
	if half.Files != base.Files/2 {
		t.Errorf("Files = %d", half.Files)
	}
	if half.TotalBytes != base.TotalBytes/2 {
		t.Errorf("TotalBytes = %d", half.TotalBytes)
	}
	tiny := base.Scale(1e-9)
	if tiny.Files < 1 || tiny.TotalBytes < 1<<10 || tiny.VocabSize < 64 {
		t.Errorf("tiny scale produced degenerate spec: %+v", tiny)
	}
	if tiny.LargeFiles > tiny.Files/2 {
		t.Errorf("tiny scale kept %d large files for %d files", tiny.LargeFiles, tiny.Files)
	}
}

func TestPaperSpecShape(t *testing.T) {
	s := PaperSpec()
	if s.Files != 51_000 {
		t.Errorf("Files = %d", s.Files)
	}
	if s.TotalBytes != 869<<20 {
		t.Errorf("TotalBytes = %d", s.TotalBytes)
	}
	if s.LargeFiles != 5 {
		t.Errorf("LargeFiles = %d", s.LargeFiles)
	}
}

// Property: normalize is idempotent and never yields invalid field values.
func TestNormalizeTotal(t *testing.T) {
	if err := quick.Check(func(files int, bytes int64, large int, zipf float64) bool {
		s := Spec{Files: files % 10000, TotalBytes: bytes % (1 << 30), LargeFiles: large % 100, ZipfS: zipf}
		n := s.normalize()
		if n.Files < 1 || n.TotalBytes < 1 || n.LargeFiles < 0 || n.LargeFiles > n.Files {
			return false
		}
		if n.ZipfS <= 1 || n.MinTermLen < 1 || n.MaxTermLen < n.MinTermLen {
			return false
		}
		return n.normalize() == n
	}, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestDescribePaperScaleIsFast(t *testing.T) {
	// Metadata for the full 51k-file corpus must be cheap — the simulator
	// calls this for every experiment.
	stats := Describe(PaperSpec())
	if len(stats.Files) != 51_000 {
		t.Fatalf("files = %d", len(stats.Files))
	}
	if stats.TotalBytes < 800<<20 {
		t.Errorf("TotalBytes = %d, want ≈869 MB", stats.TotalBytes)
	}
}

func BenchmarkDescribePaperShape(b *testing.B) {
	for i := 0; i < b.N; i++ {
		Describe(PaperSpec())
	}
}

func BenchmarkGenerateSmall(b *testing.B) {
	spec := testSpec()
	for i := 0; i < b.N; i++ {
		if _, err := Generate(spec, vfs.NewMemFS()); err != nil {
			b.Fatal(err)
		}
	}
}
