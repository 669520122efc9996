package core

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"

	"desksearch/internal/corpus"
	"desksearch/internal/extract"
	"desksearch/internal/index"
	"desksearch/internal/postings"
	"desksearch/internal/shard"
	"desksearch/internal/tokenize"
	"desksearch/internal/vfs"
)

// testCorpus generates a small deterministic corpus once per test binary.
var testCorpusFS *vfs.MemFS

func corpusFS(t *testing.T) *vfs.MemFS {
	t.Helper()
	if testCorpusFS == nil {
		fs := vfs.NewMemFS()
		spec := corpus.SmallSpec()
		spec.Files = 120
		spec.TotalBytes = 1 << 20
		spec.HTMLFraction, spec.WPFraction = 0, 0
		if _, err := corpus.Generate(spec, fs); err != nil {
			t.Fatal(err)
		}
		testCorpusFS = fs
	}
	return testCorpusFS
}

// reference builds the ground-truth index sequentially.
func reference(t *testing.T) *Result {
	t.Helper()
	res, err := Run(corpusFS(t), ".", Config{Implementation: Sequential})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestImplementationString(t *testing.T) {
	if Sequential.String() != "Sequential" ||
		SharedIndex.String() != "Implementation 1" ||
		ReplicatedJoin.String() != "Implementation 2" ||
		ReplicatedSearch.String() != "Implementation 3" {
		t.Error("Implementation names wrong")
	}
	if !strings.Contains(Implementation(9).String(), "9") {
		t.Error("unknown implementation name")
	}
}

func TestConfigTuple(t *testing.T) {
	c := Config{Extractors: 3, Updaters: 1}
	if c.Tuple() != "(3, 1, 0)" {
		t.Errorf("Tuple = %q", c.Tuple())
	}
}

func TestConfigValidate(t *testing.T) {
	good := Config{Implementation: SharedIndex, Extractors: 2}
	if err := good.Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
	if err := (Config{Implementation: Implementation(42)}).Validate(); err == nil {
		t.Error("bad implementation accepted")
	}
	if err := (Config{Extractors: -1}).Validate(); err == nil {
		t.Error("negative extractors accepted")
	}
}

func TestConfigReplicas(t *testing.T) {
	tests := []struct {
		cfg  Config
		want int
	}{
		{Config{Implementation: Sequential}, 1},
		{Config{Implementation: SharedIndex, Extractors: 4, Updaters: 2}, 1},
		{Config{Implementation: ReplicatedJoin, Extractors: 4, Updaters: 2}, 2},
		{Config{Implementation: ReplicatedJoin, Extractors: 4}, 4},
		{Config{Implementation: ReplicatedSearch, Extractors: 3, Updaters: 0}, 3},
	}
	for _, tc := range tests {
		if got := tc.cfg.Replicas(); got != tc.want {
			t.Errorf("%s %s Replicas = %d, want %d", tc.cfg.Implementation, tc.cfg.Tuple(), got, tc.want)
		}
	}
}

func TestDefaultConfigs(t *testing.T) {
	seq := Default(Sequential, 8)
	if seq.Extractors != 1 || seq.Updaters != 0 {
		t.Errorf("sequential default = %s", seq.Tuple())
	}
	par := Default(SharedIndex, 8)
	if par.Extractors != 8 || par.Updaters != 1 {
		t.Errorf("parallel default = %s", par.Tuple())
	}
	tiny := Default(SharedIndex, 0)
	if tiny.Extractors < 1 {
		t.Errorf("degenerate cores gave %s", tiny.Tuple())
	}
	// Auto is Implementation 3 with Default's extractors and at least two
	// updaters.
	for cores, want := range map[int]string{1: "(1, 2, 0)", 2: "(2, 2, 0)", 8: "(8, 2, 0)"} {
		auto := Auto(cores)
		if auto.Implementation != ReplicatedSearch || auto.Tuple() != want {
			t.Errorf("Auto(%d) = %v %s, want Implementation 3 %s", cores, auto.Implementation, auto.Tuple(), want)
		}
	}
}

func TestSequentialRun(t *testing.T) {
	res := reference(t)
	if res.Index == nil {
		t.Fatal("sequential run produced no index")
	}
	if res.Files.Len() != 120 {
		t.Errorf("file table has %d entries", res.Files.Len())
	}
	if res.Index.NumTerms() == 0 || res.Index.NumPostings() == 0 {
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
// implementation, under many thread configurations, produces exactly the
// reference index (after joining replicas where needed).
func TestAllImplementationsAgree(t *testing.T) {
	want := reference(t).Index
	configs := []Config{
		{Implementation: SharedIndex, Extractors: 1},
		{Implementation: SharedIndex, Extractors: 4},
		{Implementation: SharedIndex, Extractors: 3, Updaters: 1},
		{Implementation: SharedIndex, Extractors: 3, Updaters: 2},
		{Implementation: SharedIndex, Extractors: 8, Updaters: 4, Buffer: 2},
		{Implementation: ReplicatedJoin, Extractors: 3, Updaters: 0},
		{Implementation: ReplicatedJoin, Extractors: 3, Updaters: 5, Joiners: 1},
		{Implementation: ReplicatedJoin, Extractors: 6, Updaters: 2, Joiners: 3},
		{Implementation: ReplicatedJoin, Extractors: 2, Updaters: 4, Joiners: 2},
		{Implementation: ReplicatedSearch, Extractors: 3, Updaters: 2},
		{Implementation: ReplicatedSearch, Extractors: 4},
		{Implementation: ReplicatedJoin, Extractors: 4},
	}
	for _, cfg := range configs {
		res, err := Run(corpusFS(t), ".", cfg)
		if err != nil {
			t.Fatalf("%v %s: %v", cfg.Implementation, cfg.Tuple(), err)
		}
		got := res.Index
		if got == nil {
			// ReplicatedSearch: join a copy for comparison.
			got = index.JoinAll(res.Replicas)
		}
		if !got.Equal(want) {
			t.Errorf("%v %s: index differs from sequential reference",
				cfg.Implementation, cfg.Tuple())
		}
		if len(res.SkippedFiles) != 0 {
			t.Errorf("%v %s: skipped %d files", cfg.Implementation, cfg.Tuple(), len(res.SkippedFiles))
		}
	}
}

// TestRandomConfigsAgreeWithReference drives the pipeline with randomized
// configurations (implementation, thread counts, buffer size) and checks
// every run produces the reference index.
func TestRandomConfigsAgreeWithReference(t *testing.T) {
	want := reference(t).Index
	if err := quick.Check(func(implRaw, x, y, z, buf uint8) bool {
		impls := []Implementation{SharedIndex, ReplicatedJoin, ReplicatedSearch}
		cfg := Config{
			Implementation: impls[int(implRaw)%len(impls)],
			Extractors:     int(x%6) + 1,
			Updaters:       int(y % 5),
			Joiners:        int(z % 4),
			Buffer:         int(buf % 16),
		}
		res, err := Run(corpusFS(t), ".", cfg)
		if err != nil {
			return false
		}
		got := res.Index
		if got == nil {
			got = index.JoinAll(res.Replicas)
		}
		return got.Equal(want) && len(res.SkippedFiles) == 0
	}, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestReplicatedSearchKeepsReplicas(t *testing.T) {
	res, err := Run(corpusFS(t), ".", Config{Implementation: ReplicatedSearch, Extractors: 4, Updaters: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Index != nil {
		t.Error("ReplicatedSearch should not join")
	}
	if len(res.Replicas) != 3 {
		t.Errorf("got %d replicas, want 3", len(res.Replicas))
	}
	if len(res.Indexes()) != 3 {
		t.Errorf("Indexes() = %d", len(res.Indexes()))
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
	res, err := Run(corpusFS(t), ".", Config{Implementation: ReplicatedSearch, Extractors: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Index == nil || len(res.Replicas) != 0 {
		t.Error("single-replica run should surface Index directly")
	}
}

func TestReplicatedJoinTimesJoinPhase(t *testing.T) {
	res, err := Run(corpusFS(t), ".", Config{Implementation: ReplicatedJoin, Extractors: 4, Updaters: 4, Joiners: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Timings.Join <= 0 {
		t.Errorf("join phase not timed: %+v", res.Timings)
	}
	if res.Index == nil {
		t.Error("join produced no index")
	}
}

func TestRunMissingRoot(t *testing.T) {
	if _, err := Run(corpusFS(t), "missing-root", Config{}); err == nil {
		t.Error("missing root not reported")
	}
}

func TestRunInvalidConfig(t *testing.T) {
	if _, err := Run(corpusFS(t), ".", Config{Implementation: Implementation(77)}); err == nil {
		t.Error("invalid config not rejected")
	}
}

func TestSkippedFilesAreReportedNotFatal(t *testing.T) {
	// A file that vanishes between walk and read: emulate with an FS
	// wrapper that fails reads for one path.
	fs := failingFS{FS: corpusFS(t), failPath: "large-0.txt"}
	res, err := Run(fs, ".", Config{Implementation: SharedIndex, Extractors: 4, Updaters: 1})
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
	if res.Index.NumPostings() == 0 {
		t.Error("index empty after one skipped file")
	}
}

func TestSkippedFilesSequential(t *testing.T) {
	fs := failingFS{FS: corpusFS(t), failPath: "large-1.txt"}
	res, err := Run(fs, ".", Config{Implementation: Sequential})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.SkippedFiles) != 1 {
		t.Errorf("skipped = %+v", res.SkippedFiles)
	}
}

type failingFS struct {
	vfs.FS
	failPath string
}

func (f failingFS) ReadFile(name string) ([]byte, error) {
	if name == f.failPath {
		return nil, errInjected
	}
	return f.FS.ReadFile(name)
}

var errInjected = &injectedError{}

type injectedError struct{}

func (*injectedError) Error() string { return "injected read failure" }

func TestMeasureStages(t *testing.T) {
	st, err := MeasureStages(corpusFS(t), ".", extract.Options{Tokenize: tokenize.Default})
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

// TestShardedRunsAgreeWithReference checks Config.Shards across every
// implementation, thread tuple and shard count: whichever goroutines
// inserted — one thread, extractors into locked shards, or owning updaters
// behind lanes — shard i must equal shard i of shard.Distribute applied to
// the unsharded reference (so the saved bytes cannot depend on the build
// path), hold only postings ShardFor routes to it, and cost no shard phase.
func TestShardedRunsAgreeWithReference(t *testing.T) {
	ref := reference(t)
	fs := failingFS{FS: corpusFS(t), failPath: "large-0.txt"}
	tuples := []Config{
		{Implementation: Sequential},
		{Implementation: SharedIndex, Extractors: 3},
		{Implementation: SharedIndex, Extractors: 3, Updaters: 2},
		{Implementation: ReplicatedJoin, Extractors: 3},
		{Implementation: ReplicatedJoin, Extractors: 4, Updaters: 3, Joiners: 2},
		{Implementation: ReplicatedSearch, Extractors: 3},
		{Implementation: ReplicatedSearch, Extractors: 1},
		{Implementation: ReplicatedSearch, Extractors: 1, Updaters: 2},
		{Implementation: ReplicatedSearch, Extractors: 4, Updaters: 4},
		{Implementation: ReplicatedSearch, Extractors: 4, Updaters: 3, Buffer: 2},
		{Implementation: ReplicatedSearch, Extractors: 2, Updaters: 5},
	}
	for _, n := range []int{1, 4, 8} {
		want := shard.Distribute(ref.Files, []*index.Index{ref.Index}, n).Shards()
		for _, cfg := range tuples {
			cfg.Shards = n
			name := fmt.Sprintf("%v %s shards=%d", cfg.Implementation, cfg.Tuple(), n)
			res, err := Run(corpusFS(t), ".", cfg)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if res.Shards == nil || res.Shards.Len() != n {
				t.Fatalf("%s: Shards = %v", name, res.Shards)
			}
			if res.Index != nil || res.Replicas != nil {
				t.Errorf("%s: Index and Replicas should be nil on sharded runs", name)
			}
			if got := len(res.Indexes()); got != n {
				t.Errorf("%s: Indexes() returned %d", name, got)
			}
			if res.Timings.Shard != 0 || res.Timings.Join != 0 {
				t.Errorf("%s: sharded run timed a shard or join phase: %+v", name, res.Timings)
			}
			if len(res.SkippedFiles) != 0 {
				t.Errorf("%s: skipped %d files", name, len(res.SkippedFiles))
			}
			for i, got := range res.Shards.Shards() {
				if !got.Equal(want[i]) {
					t.Errorf("%s: shard %d differs from Distribute of the reference", name, i)
				}
				got.Range(func(term string, l *postings.List) bool {
					for _, id := range l.IDs() {
						if shard.ShardFor(id, n) != i {
							t.Errorf("%s: shard %d holds %q for file %d, which routes to shard %d",
								name, i, term, id, shard.ShardFor(id, n))
							return false
						}
					}
					return true
				})
			}

			// An unreadable file is reported, not fatal, on every path.
			if n != 4 {
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
	if err := (Config{Implementation: ReplicatedSearch, Shards: shard.MaxShards}).Validate(); err != nil {
		t.Errorf("shard count at the limit rejected: %v", err)
	}
	err := (Config{Implementation: ReplicatedSearch, Shards: shard.MaxShards + 1}).Validate()
	if err == nil {
		t.Fatal("shard count above the limit accepted")
	}
	if !strings.Contains(err.Error(), fmt.Sprint(shard.MaxShards)) {
		t.Errorf("error %q does not name the limit %d", err, shard.MaxShards)
	}
}

// TestRoundRobinDealing pins the Stage 1→2 dealing rule: job i goes to
// extractor i mod x. With no updaters each extractor fills its own
// replica, so replica w of a (3, 0, 0) ReplicatedSearch run holds exactly
// the files whose IDs are ≡ w (mod 3).
func TestRoundRobinDealing(t *testing.T) {
	const x = 3
	res, err := Run(corpusFS(t), ".", Config{Implementation: ReplicatedSearch, Extractors: x})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Replicas) != x {
		t.Fatalf("got %d replicas, want %d", len(res.Replicas), x)
	}
	for w, r := range res.Replicas {
		var want []postings.FileID
		for id := w; id < res.Files.Len(); id += x {
			want = append(want, postings.FileID(id))
		}
		if got := r.Docs().IDs(); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("replica %d holds files %v, want %v", w, got, want)
		}
	}
}
