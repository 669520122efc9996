package tokenize

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"desksearch/internal/fnv"
)

func TestScanBasic(t *testing.T) {
	tests := []struct {
		in   string
		want []string
	}{
		{"hello world", []string{"hello", "world"}},
		{"", nil},
		{"   \t\n  ", nil},
		{"Hello, World!", []string{"hello", "world"}},
		{"foo-bar_baz", []string{"foo", "bar", "baz"}},
		{"x", []string{"x"}},
		{"a1b2", []string{"a1b2"}},
		{"2010 report", []string{"2010", "report"}},
		{"ALL CAPS", []string{"all", "caps"}},
		{"MixedCase Words", []string{"mixedcase", "words"}},
		{"trailing term", []string{"trailing", "term"}},
		{"ümlaut naïve", []string{"mlaut", "na", "ve"}}, // non-ASCII split
	}
	for _, tc := range tests {
		got := Terms([]byte(tc.in))
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("Terms(%q) = %q, want %q", tc.in, got, tc.want)
		}
	}
}

// TestScanMaxLen: a run of exactly MaxTermLen bytes is a term; one byte
// more and the whole run is dropped, not truncated.
func TestScanMaxLen(t *testing.T) {
	atMax := strings.Repeat("x", MaxTermLen)
	over := strings.Repeat("Y", MaxTermLen+1)
	got := Terms([]byte("short " + atMax + " " + over + " " + strings.ToUpper(atMax) + " end"))
	want := []string{"short", atMax, atMax, "end"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("got %q, want %q", got, want)
	}
}

// TestScanBytesAllocFree: a scan hands emit views, so over lower-case text
// it allocates nothing, and over mixed-case text only the one scratch
// buffer folded terms share.
func TestScanBytesAllocFree(t *testing.T) {
	for _, tc := range []struct {
		text      string
		maxAllocs float64
	}{
		{"the index of the files and a search over them ", 0},
		{"The Index of the FILES and a Search over them ", 1},
	} {
		data := bytes.Repeat([]byte(tc.text), 100)
		emitted := 0
		allocs := testing.AllocsPerRun(10, func() {
			ScanBytes(data, func([]byte, uint32) { emitted++ })
		})
		if allocs > tc.maxAllocs {
			t.Errorf("ScanBytes over %q allocated %v times per call, want at most %v", tc.text, allocs, tc.maxAllocs)
		}
		if want := 11 * 1000; emitted != want {
			t.Errorf("emitted %d terms over 11 calls, want %d", emitted, want)
		}
	}
}

// Property: scanning emits only lower-case ASCII alphanumeric terms of 1 to
// MaxTermLen bytes.
func TestScanEmitsCanonicalTerms(t *testing.T) {
	if err := quick.Check(func(data []byte) bool {
		ok := true
		ScanBytes(data, func(term []byte, _ uint32) {
			if len(term) < 1 || len(term) > MaxTermLen {
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
		first := Terms(data)
		rejoined := strings.Join(first, " ")
		second := Terms([]byte(rejoined))
		return reflect.DeepEqual(first, second)
	}, nil); err != nil {
		t.Error(err)
	}
}

// TestScanBytesViews: the view handed to emit is the term's bytes for the
// duration of the call — a window of data for an all-lower-case term, the
// folded copy otherwise — and data itself is never written to.
func TestScanBytesViews(t *testing.T) {
	data := []byte("alpha BETA gamma Delta9")
	orig := string(data)
	var got []string
	var views [][]byte
	ScanBytes(data, func(term []byte, _ uint32) {
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
	terms := Terms([]byte(sb.String()))
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
		ScanBytes(data, func([]byte, uint32) {})
	}
}

// naiveTerms is the scanner's rule written the slow way: split on every
// byte outside [A-Za-z0-9], lower-case each field, drop fields longer than
// MaxTermLen.
func naiveTerms(data []byte) []string {
	var out []string
	var field []byte
	flush := func() {
		if len(field) > 0 && len(field) <= MaxTermLen {
			out = append(out, string(bytes.ToLower(field)))
		}
		field = field[:0]
	}
	for _, c := range data {
		if c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' {
			field = append(field, c)
		} else {
			flush()
		}
	}
	flush()
	return out
}

// FuzzScan holds ScanBytes to naiveTerms on arbitrary bytes, non-ASCII ones
// included, holds every hash it emits to fnv.Hash32Bytes of the term, and
// checks that data is never written to.
func FuzzScan(f *testing.F) {
	f.Add([]byte("Hello, World! a1b2 2010"))
	f.Add([]byte("ümlaut naïve \xff\x80Z"))
	f.Add([]byte(strings.Repeat("a", MaxTermLen) + " " + strings.Repeat("B", MaxTermLen+1) + "c"))
	f.Fuzz(func(t *testing.T, data []byte) {
		orig := string(data)
		var got []string
		ScanBytes(data, func(term []byte, hash uint32) {
			if want := fnv.Hash32Bytes(term); hash != want {
				t.Fatalf("ScanBytes(%q): term %q hashed %#x, want %#x", data, term, hash, want)
			}
			got = append(got, string(term))
		})
		if want := naiveTerms(data); !reflect.DeepEqual(got, want) {
			t.Fatalf("ScanBytes(%q) = %q, want %q", data, got, want)
		}
		if string(data) != orig {
			t.Fatalf("input modified: %q, was %q", data, orig)
		}
	})
}
