package core

import (
	"bytes"
	"fmt"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"desksearch/internal/corpus"
	"desksearch/internal/extract"
	"desksearch/internal/index"
	"desksearch/internal/postings"
	"desksearch/internal/shard"
	"desksearch/internal/vfs"
)

// testCorpus generates a small deterministic corpus once per test binary.
var testCorpusFS *vfs.MemFS

func corpusFS(t *testing.T) *vfs.MemFS {
	t.Helper()
	if testCorpusFS == nil {
		fs := vfs.NewMemFS()
		spec := corpus.PaperSpec().Scale(1.0 / 128)
		spec.Files = 120
		spec.TotalBytes = 1 << 20
		if _, err := corpus.Generate(spec, fs); err != nil {
			t.Fatal(err)
		}
		testCorpusFS = fs
	}
	return testCorpusFS
}

// reference builds the ground-truth run sequentially; its one partition is
// the whole index.
func reference(t *testing.T) *Result {
	t.Helper()
	res, err := Run(corpusFS(t), ".", Config{})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestConfigTuple(t *testing.T) {
	c := Config{Extractors: 3, Updaters: 1}
	if c.Tuple() != "(3, 1)" {
		t.Errorf("Tuple = %q", c.Tuple())
	}
}

func TestConfigValidate(t *testing.T) {
	good := Config{Extractors: 2}
	if err := good.Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
	if err := (Config{Extractors: -1}).Validate(); err == nil {
		t.Error("negative extractors accepted")
	}
	if err := (Config{Updaters: -1}).Validate(); err == nil {
		t.Error("negative updaters accepted")
	}
}

func TestConfigReplicas(t *testing.T) {
	tests := []struct {
		cfg  Config
		want int
	}{
		{Config{}, 1},
		{Config{Extractors: 1}, 1},
		{Config{Extractors: 1, Updaters: 3}, 3},
		{Config{Extractors: 4, Updaters: 2}, 2},
		{Config{Extractors: 3, Updaters: 0}, 1},
		{Config{Extractors: 3, Updaters: 2, Shards: 5}, 2},
	}
	for _, tc := range tests {
		if got := tc.cfg.Replicas(); got != tc.want {
			t.Errorf("%s Replicas = %d, want %d", tc.cfg.Tuple(), got, tc.want)
		}
	}
}

func TestDefaultConfigs(t *testing.T) {
	par := Default(ReplicatedSearch, 8)
	if par.Extractors != 8 || par.Updaters != 1 {
		t.Errorf("parallel default = %s", par.Tuple())
	}
	tiny := Default(ReplicatedSearch, 0)
	if tiny.Extractors < 1 {
		t.Errorf("degenerate cores gave %s", tiny.Tuple())
	}
	// Auto is Default's extractors and two updaters.
	for cores, want := range map[int]string{1: "(1, 2)", 2: "(2, 2)", 8: "(8, 2)"} {
		if auto := Auto(cores); auto.Tuple() != want {
			t.Errorf("Auto(%d) = %s, want %s", cores, auto.Tuple(), want)
		}
	}
}

// joined returns the run's partitions folded into the first with
// Index.Join. It consumes them.
func joined(res *Result) *index.Index {
	parts := res.Indexes()
	for _, p := range parts[1:] {
		parts[0].Join(p)
	}
	return parts[0]
}

func TestSequentialRun(t *testing.T) {
	res := reference(t)
	if res.Set.Len() != 1 {
		t.Fatalf("sequential run produced %d partitions, want 1", res.Set.Len())
	}
	if res.Files.Len() != 120 {
		t.Errorf("file table has %d entries", res.Files.Len())
	}
	if ix := res.Indexes()[0]; ix.NumTerms() == 0 || ix.NumPostings() == 0 {
		t.Error("index is empty")
	}
	if len(res.SkippedFiles) != 0 {
		t.Errorf("skipped %d files", len(res.SkippedFiles))
	}
	if res.Timings.Total <= 0 || res.Timings.FilenameGen <= 0 {
		t.Errorf("timings not recorded: %+v", res.Timings)
	}
}

// TestAllImplementationsAgree is the central correctness property: every
// thread tuple produces exactly the reference index once its partitions
// are joined.
func TestAllImplementationsAgree(t *testing.T) {
	want := joined(reference(t))
	configs := []Config{
		{Extractors: 1},
		{Extractors: 4},
		{Extractors: 3, Updaters: 1},
		{Extractors: 3, Updaters: 2},
		{Extractors: 8, Updaters: 4},
		{Extractors: 3, Updaters: 5},
		{Extractors: 6, Updaters: 2},
		{Extractors: 2, Updaters: 4},
		{Extractors: 1, Updaters: 3},
	}
	for _, cfg := range configs {
		res, err := Run(corpusFS(t), ".", cfg)
		if err != nil {
			t.Fatalf("%s: %v", cfg.Tuple(), err)
		}
		if !joined(res).Equal(want) {
			t.Errorf("%s: index differs from sequential reference", cfg.Tuple())
		}
		if len(res.SkippedFiles) != 0 {
			t.Errorf("%s: skipped %d files", cfg.Tuple(), len(res.SkippedFiles))
		}
	}
}

// TestRandomConfigsAgreeWithReference drives the pipeline with randomized
// thread tuples and shard counts and checks every run produces the
// reference index.
func TestRandomConfigsAgreeWithReference(t *testing.T) {
	want := joined(reference(t))
	if err := quick.Check(func(x, y, n uint8) bool {
		cfg := Config{
			Extractors: int(x%6) + 1,
			Updaters:   int(y % 5),
			Shards:     int(n % 6),
		}
		res, err := Run(corpusFS(t), ".", cfg)
		if err != nil {
			return false
		}
		return joined(res).Equal(want) && len(res.SkippedFiles) == 0
	}, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestReplicatedSearchKeepsReplicas(t *testing.T) {
	res, err := Run(corpusFS(t), ".", Config{Extractors: 4, Updaters: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Set.Len() != 3 {
		t.Errorf("got %d partitions, want one per replica, 3", res.Set.Len())
	}
	var postings int64
	for _, ix := range res.Indexes() {
		postings += ix.NumPostings()
	}
	if postings == 0 {
		t.Error("replicas empty")
	}
}

func TestReplicatedSearchSingleReplicaIsIndex(t *testing.T) {
	res, err := Run(corpusFS(t), ".", Config{Extractors: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Set.Len() != 1 {
		t.Errorf("single-replica run yielded %d partitions, want 1", res.Set.Len())
	}
}

// TestRunCapsTuple: an extractor past the file count and an updater past
// the partition count are not started, and Result.Config says so.
func TestRunCapsTuple(t *testing.T) {
	res, err := Run(corpusFS(t), ".", Config{Extractors: 200, Updaters: 8, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Config.Tuple(); got != "(120, 4)" {
		t.Errorf("Result.Config = %s, want (120, 4)", got)
	}
	if !joined(res).Equal(joined(reference(t))) {
		t.Error("capped run differs from sequential reference")
	}
}

func TestRunMissingRoot(t *testing.T) {
	if _, err := Run(corpusFS(t), "missing-root", Config{}); err == nil {
		t.Error("missing root not reported")
	}
}

func TestRunInvalidConfig(t *testing.T) {
	if _, err := Run(corpusFS(t), ".", Config{Updaters: -1}); err == nil {
		t.Error("invalid config not rejected")
	}
}

func TestSkippedFilesAreReportedNotFatal(t *testing.T) {
	// A file that vanishes between walk and read: emulate with an FS
	// wrapper that fails reads for one path.
	fs := failingFS{MemFS: corpusFS(t), failPath: "large-0.txt"}
	res, err := Run(fs, ".", Config{Extractors: 4, Updaters: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.SkippedFiles) != 1 {
		t.Fatalf("skipped = %+v", res.SkippedFiles)
	}
	if res.SkippedFiles[0].Path != "large-0.txt" || res.SkippedFiles[0].Err == nil {
		t.Errorf("skip record = %+v", res.SkippedFiles[0])
	}
	// The rest of the corpus must still be indexed.
	if res.Indexes()[0].NumPostings() == 0 {
		t.Error("index empty after one skipped file")
	}
}

func TestSkippedFilesSequential(t *testing.T) {
	fs := failingFS{MemFS: corpusFS(t), failPath: "large-1.txt"}
	res, err := Run(fs, ".", Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.SkippedFiles) != 1 {
		t.Errorf("skipped = %+v", res.SkippedFiles)
	}
}

type failingFS struct {
	*vfs.MemFS
	failPath string
}

func (f failingFS) ReadFile(name string) ([]byte, error) {
	if name == f.failPath {
		return nil, errInjected
	}
	return f.MemFS.ReadFile(name)
}

var errInjected = &injectedError{}

type injectedError struct{}

func (*injectedError) Error() string { return "injected read failure" }

func TestMeasureStages(t *testing.T) {
	st, err := MeasureStages(corpusFS(t), ".", extract.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if st.FilenameGen <= 0 || st.ReadFiles <= 0 || st.ReadExtract <= 0 || st.IndexUpdate <= 0 {
		t.Errorf("stage times not positive: %+v", st)
	}
	// Reading plus extraction cannot be cheaper than... in wall-clock terms
	// this can jitter; assert only the trivially true ordering on a warm
	// in-memory FS where extraction adds real work.
	if st.ReadExtract < st.ReadFiles/4 {
		t.Errorf("ReadExtract (%v) implausibly small vs ReadFiles (%v)", st.ReadExtract, st.ReadFiles)
	}
}

func TestMeasureStagesMissingRoot(t *testing.T) {
	if _, err := MeasureStages(corpusFS(t), "gone", extract.Options{}); err == nil {
		t.Error("missing root not reported")
	}
}

// routedReference filters the reference index into n partitions posting
// by posting: partition i keeps exactly the postings of the files
// shard.ShardFor routes to i, with their frequencies.
func routedReference(t *testing.T, ref *index.Index, n int) []*index.Index {
	t.Helper()
	if ref.Positional() {
		t.Fatal("routedReference copies frequencies only")
	}
	parts := make([]*index.Index, n)
	for i := range parts {
		parts[i] = index.New(0)
	}
	w := ref.TermsFrom("")
	for term, _, ok := w.Next(); ok; term, _, ok = w.Next() {
		l := ref.Lookup(term)
		ids, counts := make([][]postings.FileID, n), make([][]uint32, n)
		for j, id := range l.IDs() {
			i := shard.ShardFor(id, n)
			ids[i] = append(ids[i], id)
			counts[i] = append(counts[i], l.CountAt(j))
		}
		for i := range parts {
			parts[i].MergeTerm(term, postings.FromSortedIDCounts(ids[i], counts[i]))
		}
	}
	return parts
}

// TestShardedRunsAgreeWithReference checks every run's output across
// thread tuple and Config.Shards, 0 included: whichever goroutine owned a
// partition — the one extractor, or an updater behind its lane — the set
// has Config.Shards partitions, or when that is 0 one per updater (one
// when there are none), and partition i equals the reference's postings
// that shard.ShardFor routes to i (so the saved bytes cannot depend on the
// build path).
func TestShardedRunsAgreeWithReference(t *testing.T) {
	ref := joined(reference(t))
	fs := failingFS{MemFS: corpusFS(t), failPath: "large-0.txt"}
	tuples := []Config{
		{},
		{Extractors: 3},
		{Extractors: 3, Updaters: 2},
		{Extractors: 1, Updaters: 2},
		{Extractors: 4, Updaters: 4},
		{Extractors: 4, Updaters: 3},
		{Extractors: 2, Updaters: 5},
	}
	wants := map[int][]*index.Index{}
	for _, n := range []int{0, 1, 4, 8} {
		for _, cfg := range tuples {
			cfg.Shards = n
			name := fmt.Sprintf("%s shards=%d", cfg.Tuple(), n)
			parts := n
			if n == 0 {
				parts = max(cfg.Updaters, 1)
			}
			if wants[parts] == nil {
				wants[parts] = routedReference(t, ref, parts)
			}
			res, err := Run(corpusFS(t), ".", cfg)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if res.Set.Len() != parts {
				t.Fatalf("%s: %d partitions, want %d", name, res.Set.Len(), parts)
			}
			if len(res.SkippedFiles) != 0 {
				t.Errorf("%s: skipped %d files", name, len(res.SkippedFiles))
			}
			for i, got := range res.Indexes() {
				if !got.Equal(wants[parts][i]) {
					t.Errorf("%s: partition %d differs from the reference postings ShardFor routes to it", name, i)
				}
			}

			// An unreadable file is reported, not fatal, on every path.
			if n != 0 && n != 4 {
				continue
			}
			res, err = Run(fs, ".", cfg)
			if err != nil {
				t.Fatalf("%s with a failing file: %v", name, err)
			}
			if len(res.SkippedFiles) != 1 || res.SkippedFiles[0].Path != fs.failPath {
				t.Errorf("%s: skipped = %+v, want %s", name, res.SkippedFiles, fs.failPath)
			}
		}
	}
}

func TestConfigValidateRejectsNegativeShards(t *testing.T) {
	if err := (Config{Shards: -1}).Validate(); err == nil {
		t.Error("negative shard count accepted")
	}
}

// TestConfigValidateBoundsShards: a shard count LoadDir would refuse to
// read back is refused before anything is built, naming the limit.
func TestConfigValidateBoundsShards(t *testing.T) {
	if err := (Config{Shards: shard.MaxShards}).Validate(); err != nil {
		t.Errorf("shard count at the limit rejected: %v", err)
	}
	err := (Config{Shards: shard.MaxShards + 1}).Validate()
	if err == nil {
		t.Fatal("shard count above the limit accepted")
	}
	if !strings.Contains(err.Error(), fmt.Sprint(shard.MaxShards)) {
		t.Errorf("error %q does not name the limit %d", err, shard.MaxShards)
	}
}

// readerFS records, for each file read, the goroutine that read it.
type readerFS struct {
	*vfs.MemFS
	mu     sync.Mutex
	reader map[string]uint64
}

func (f *readerFS) ReadFile(name string) ([]byte, error) {
	f.mu.Lock()
	f.reader[name] = goroutineID()
	f.mu.Unlock()
	return f.MemFS.ReadFile(name)
}

// goroutineID parses the calling goroutine's ID from the header of its
// stack trace ("goroutine 7 [running]:").
func goroutineID() uint64 {
	var buf [64]byte
	b := bytes.TrimPrefix(buf[:runtime.Stack(buf[:], false)], []byte("goroutine "))
	id, err := strconv.ParseUint(string(b[:bytes.IndexByte(b, ' ')]), 10, 64)
	if err != nil {
		panic(err)
	}
	return id
}

// TestRoundRobinDealing pins the Stage 1→2 dealing rule: job i goes to
// extractor i mod x, whatever happens to the blocks afterwards. It
// watches which goroutine read each file: under every tuple, there are x
// readers, and the files one reader read are exactly those whose IDs are
// ≡ w (mod x) for some w.
func TestRoundRobinDealing(t *testing.T) {
	const x = 3
	for _, cfg := range []Config{
		{Extractors: x},
		{Extractors: x, Updaters: 2, Shards: 4},
		{Extractors: x, Updaters: 1},
	} {
		fs := &readerFS{MemFS: corpusFS(t), reader: map[string]uint64{}}
		res, err := Run(fs, ".", cfg)
		if err != nil {
			t.Fatal(err)
		}
		if len(fs.reader) != res.Files.Len() {
			t.Fatalf("%s: read %d files of %d", cfg.Tuple(), len(fs.reader), res.Files.Len())
		}
		read := map[uint64][]postings.FileID{}
		for path, g := range fs.reader {
			id, _ := res.Files.Lookup(path)
			read[g] = append(read[g], id)
		}
		if len(read) != x {
			t.Fatalf("%s: %d goroutines read files, want %d extractors", cfg.Tuple(), len(read), x)
		}
		for _, got := range read {
			slices.Sort(got)
			var want []postings.FileID
			for id := got[0]; int(id) < res.Files.Len(); id += x {
				want = append(want, id)
			}
			if !slices.Equal(got, want) {
				t.Errorf("%s: one extractor read files %v, want %v", cfg.Tuple(), got, want)
			}
		}
	}
}
