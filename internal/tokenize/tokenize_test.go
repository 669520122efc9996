package tokenize

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestScanBasic(t *testing.T) {
	tests := []struct {
		in   string
		opts Options
		want []string
	}{
		{"hello world", Default, []string{"hello", "world"}},
		{"", Default, nil},
		{"   \t\n  ", Default, nil},
		{"Hello, World!", Default, []string{"hello", "world"}},
		{"foo-bar_baz", Default, []string{"foo", "bar", "baz"}},
		{"x", Default, []string{"x"}},
		{"a1b2", Default, []string{"a1b2"}},
		{"2010 report", Default, []string{"2010", "report"}},
		{"ALL CAPS", Default, []string{"all", "caps"}},
		{"MixedCase Words", Default, []string{"mixedcase", "words"}},
		{"trailing term", Default, []string{"trailing", "term"}},
		{"ümlaut naïve", Default, []string{"mlaut", "na", "ve"}}, // non-ASCII split
	}
	for _, tc := range tests {
		got := Terms([]byte(tc.in), tc.opts)
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("Terms(%q) = %q, want %q", tc.in, got, tc.want)
		}
	}
}

func TestScanMinLen(t *testing.T) {
	got := Terms([]byte("a bb ccc dddd"), Options{MinLen: 3})
	want := []string{"ccc", "dddd"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("MinLen=3: got %q, want %q", got, want)
	}
}

func TestScanMaxLen(t *testing.T) {
	got := Terms([]byte("short "+strings.Repeat("x", 100)+" end"), Options{MaxLen: 10})
	want := []string{"short", "end"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("MaxLen=10: got %q, want %q", got, want)
	}
}

func TestScanDropDigits(t *testing.T) {
	got := Terms([]byte("abc123def 456 xyz"), Options{DropDigits: true})
	want := []string{"abc", "def", "xyz"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("DropDigits: got %q, want %q", got, want)
	}
}

func TestScanStopwords(t *testing.T) {
	stop := NewStopSet([]string{"the", "of"})
	got := Terms([]byte("The index of the files"), Options{Stopwords: stop})
	want := []string{"index", "files"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("stopwords: got %q, want %q", got, want)
	}
}

func TestStopSet(t *testing.T) {
	s := NewStopSet(EnglishStopwords)
	if !s.ContainsBytes([]byte("the")) || s.ContainsBytes([]byte("zebra")) {
		t.Error("StopSet membership wrong")
	}
	text := []byte(strings.Join(EnglishStopwords, " ") + " zebra")
	if got := Terms(text, Options{Stopwords: s}); !reflect.DeepEqual(got, []string{"zebra"}) {
		t.Errorf("every English stopword should be dropped, got %q", got)
	}
}

// TestScanBytesStopwordsAllocFree: the stopword probe looks a byte view up
// without copying it, so a scan over lower-case text allocates nothing,
// whether a term is dropped or emitted.
func TestScanBytesStopwordsAllocFree(t *testing.T) {
	data := bytes.Repeat([]byte("the index of the files and a search over them "), 100)
	opts := Options{Stopwords: NewStopSet(EnglishStopwords)}
	emitted := 0
	allocs := testing.AllocsPerRun(10, func() {
		ScanBytes(data, opts, func([]byte) { emitted++ })
	})
	if allocs != 0 {
		t.Errorf("ScanBytes with a StopSet allocated %v times per call, want 0", allocs)
	}
	if want := 11 * 500; emitted != want {
		t.Errorf("emitted %d terms over 11 calls, want %d", emitted, want)
	}
}

// Property: scanning emits only lower-case ASCII alphanumeric terms within
// the configured length bounds.
func TestScanEmitsCanonicalTerms(t *testing.T) {
	opts := Options{MinLen: 2, MaxLen: 16}
	if err := quick.Check(func(data []byte) bool {
		ok := true
		Scan(data, opts, func(term string) {
			if len(term) < 2 || len(term) > 16 {
				ok = false
			}
			for i := 0; i < len(term); i++ {
				c := term[i]
				if !(c >= 'a' && c <= 'z' || c >= '0' && c <= '9') {
					ok = false
				}
			}
		})
		return ok
	}, nil); err != nil {
		t.Error(err)
	}
}

// Property: scanning is idempotent — tokenizing the join of the output
// yields the same terms.
func TestScanIdempotent(t *testing.T) {
	if err := quick.Check(func(data []byte) bool {
		first := Terms(data, Default)
		rejoined := strings.Join(first, " ")
		second := Terms([]byte(rejoined), Default)
		return reflect.DeepEqual(first, second)
	}, nil); err != nil {
		t.Error(err)
	}
}

// TestScanBytesViews: the view handed to emit is the term's bytes for the
// duration of the call — a window of data for an all-lower-case term, the
// folded copy otherwise — and data itself is never written to.
func TestScanBytesViews(t *testing.T) {
	data := []byte("alpha BETA gamma Delta9 THE the")
	orig := string(data)
	opts := Options{Stopwords: NewStopSet([]string{"the"})}
	var got []string
	var views [][]byte
	ScanBytes(data, opts, func(term []byte) {
		got = append(got, string(term))
		views = append(views, term)
	})
	if want := []string{"alpha", "beta", "gamma", "delta9"}; !reflect.DeepEqual(got, want) {
		t.Errorf("terms = %q, want %q", got, want)
	}
	if string(data) != orig {
		t.Errorf("input modified: %q", data)
	}
	// A retained view of a folded term is overwritten by the next one;
	// that is the contract, pinned here so a caller that keeps views
	// fails a test rather than an index.
	if string(views[1]) == "beta" {
		t.Error("folded view survived the next folded term; scratch is not reused")
	}
	if &views[0][0] != &data[0] {
		t.Error("lower-case term was copied, want a window of data")
	}
}

func TestScanLargeInputTermCount(t *testing.T) {
	// A deterministic synthetic "document": 10k terms.
	var sb strings.Builder
	for i := 0; i < 10000; i++ {
		sb.WriteString("word")
		sb.WriteByte(byte('a' + i%26))
		sb.WriteByte(' ')
	}
	terms := Terms([]byte(sb.String()), Default)
	if len(terms) != 10000 {
		t.Errorf("got %d terms, want 10000", len(terms))
	}
}

func BenchmarkScan(b *testing.B) {
	data := bytes.Repeat([]byte("The Quick brown FOX jumps over the lazy dog 42 times. "), 1000)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ScanBytes(data, Default, func([]byte) {})
	}
}
