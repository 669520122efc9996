package docfmt

import (
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"desksearch/internal/tokenize"
)

func terms(data []byte) []string {
	return tokenize.Terms(data)
}

func TestByExtension(t *testing.T) {
	tests := []struct {
		name string
		want Format
	}{
		{"a.txt", PlainText},
		{"a.html", HTML},
		{"a.HTM", HTML},
		{"page.xhtml", HTML},
		{"report.wp", WPMarkup},
		{"letter.DOC", WPMarkup},
		{"noext", PlainText},
		{"dir/file.html", HTML},
		{"weird.pdf", PlainText},
	}
	for _, tc := range tests {
		if got := ByExtension(tc.name); got != tc.want {
			t.Errorf("ByExtension(%q) = %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestSniff(t *testing.T) {
	tests := []struct {
		in   string
		want Format
	}{
		{"plain words here", PlainText},
		{"<!DOCTYPE html><html>", HTML},
		{"  \n<html><body>", HTML},
		{"<HTML>", HTML},
		{".wp 1.0\nbody", WPMarkup},
		{".ti A Title\n", WPMarkup},
		{"<p>fragment without prolog", PlainText},
		{"", PlainText},
	}
	for _, tc := range tests {
		if got := Sniff([]byte(tc.in)); got != tc.want {
			t.Errorf("Sniff(%q) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

func TestFormatString(t *testing.T) {
	if PlainText.String() != "text" || HTML.String() != "html" || WPMarkup.String() != "wp" {
		t.Error("Format.String names wrong")
	}
	if Format(99).String() != "Format(99)" {
		t.Error("unknown format string wrong")
	}
}

func TestPlainPassthrough(t *testing.T) {
	in := []byte("unchanged content")
	out := For(PlainText).Extract(in)
	if string(out) != string(in) {
		t.Errorf("plain text modified: %q", out)
	}
}

func TestHTMLStripsTags(t *testing.T) {
	in := `<html><body><h1>Quarterly Report</h1><p>Revenue grew by <b>ten</b> percent.</p></body></html>`
	got := terms(For(HTML).Extract([]byte(in)))
	want := []string{"quarterly", "report", "revenue", "grew", "by", "ten", "percent"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("got %q, want %q", got, want)
	}
}

func TestHTMLTagBoundarySeparatesWords(t *testing.T) {
	got := terms(For(HTML).Extract([]byte("<b>alpha</b>beta")))
	want := []string{"alpha", "beta"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("got %q, want %q", got, want)
	}
}

func TestHTMLStripsScriptAndStyle(t *testing.T) {
	in := `<html><script>var hidden = "secretterm";</script><style>.c{color:red}</style>visible</html>`
	got := string(For(HTML).Extract([]byte(in)))
	if strings.Contains(got, "secretterm") || strings.Contains(got, "color") {
		t.Errorf("script/style leaked: %q", got)
	}
	if !strings.Contains(got, "visible") {
		t.Errorf("body text lost: %q", got)
	}
}

func TestHTMLScriptCaseInsensitive(t *testing.T) {
	in := `<SCRIPT>hidden()</SCRIPT>shown`
	got := string(For(HTML).Extract([]byte(in)))
	if strings.Contains(got, "hidden") {
		t.Errorf("uppercase script leaked: %q", got)
	}
}

func TestHTMLScriptPrefixElementNotSwallowed(t *testing.T) {
	// <scripted> is not <script>; its content must survive.
	in := `<scripted>content</scripted>`
	got := string(For(HTML).Extract([]byte(in)))
	if !strings.Contains(got, "content") {
		t.Errorf("content of <scripted> lost: %q", got)
	}
}

func TestHTMLComments(t *testing.T) {
	in := `before<!-- hidden comment with <tags> -->after`
	got := terms(For(HTML).Extract([]byte(in)))
	want := []string{"before", "after"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("got %q, want %q", got, want)
	}
}

func TestHTMLEntities(t *testing.T) {
	in := `Tom &amp; Jerry &lt;3 &nbsp;cartoons&gt;`
	got := string(For(HTML).Extract([]byte(in)))
	if !strings.Contains(got, "Tom & Jerry <3") {
		t.Errorf("entities not decoded: %q", got)
	}
	// Unknown entities pass through literally.
	in2 := `x &bogus; y &toolongentityname; z`
	got2 := string(For(HTML).Extract([]byte(in2)))
	if !strings.Contains(got2, "&bogus;") {
		t.Errorf("unknown entity mangled: %q", got2)
	}
}

func TestHTMLMalformedInputsDoNotPanic(t *testing.T) {
	cases := []string{
		"<unclosed",
		"text<",
		"<!-- unterminated",
		"<script>never closed",
		"&;",
		"&",
		"<>",
		"</",
	}
	for _, in := range cases {
		_ = For(HTML).Extract([]byte(in)) // must not panic
	}
}

func TestWPDirectiveLines(t *testing.T) {
	in := ".wp 1.0\n.ti Annual Summary\n.pp\nBody text here.\n"
	got := terms(For(WPMarkup).Extract([]byte(in)))
	want := []string{"1", "0", "annual", "summary", "body", "text", "here"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("got %q, want %q", got, want)
	}
}

func TestWPInlineControls(t *testing.T) {
	in := `The \b{bold word} and \i{italic} text.`
	got := terms(For(WPMarkup).Extract([]byte(in)))
	want := []string{"the", "bold", "word", "and", "italic", "text"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("got %q, want %q", got, want)
	}
}

func TestWPDotInsideLineIsText(t *testing.T) {
	in := "version 2.5 released\n"
	got := terms(For(WPMarkup).Extract([]byte(in)))
	want := []string{"version", "2", "5", "released"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("got %q, want %q", got, want)
	}
}

func TestExtractDispatch(t *testing.T) {
	html := []byte("<html><b>word</b></html>")
	if got := terms(Extract("f.html", html)); !reflect.DeepEqual(got, []string{"word"}) {
		t.Errorf("html dispatch: %q", got)
	}
	// Plain name but HTML content: sniffing catches it.
	if got := terms(Extract("f.txt", html)); !reflect.DeepEqual(got, []string{"word"}) {
		t.Errorf("sniff dispatch: %q", got)
	}
	plain := []byte("just words")
	if got := terms(Extract("f.txt", plain)); !reflect.DeepEqual(got, []string{"just", "words"}) {
		t.Errorf("plain dispatch: %q", got)
	}
}

// Property: extraction never panics and never grows the document.
func TestExtractorsBoundedAndTotal(t *testing.T) {
	extractors := []Extractor{For(PlainText), For(HTML), For(WPMarkup)}
	if err := quick.Check(func(data []byte, which uint8) bool {
		ex := extractors[int(which)%len(extractors)]
		out := ex.Extract(data)
		return len(out) <= len(data)+1 // +1: HTML may append one space per tag... bounded below
	}, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func BenchmarkHTMLExtract(b *testing.B) {
	doc := []byte(strings.Repeat("<p>Some <b>styled</b> paragraph with &amp; entities.</p>\n", 500))
	b.SetBytes(int64(len(doc)))
	for i := 0; i < b.N; i++ {
		For(HTML).Extract(doc)
	}
}

func BenchmarkWPExtract(b *testing.B) {
	doc := []byte(strings.Repeat(".pp\nA paragraph with \\b{bold} words in it.\n", 500))
	b.SetBytes(int64(len(doc)))
	for i := 0; i < b.N; i++ {
		For(WPMarkup).Extract(doc)
	}
}
