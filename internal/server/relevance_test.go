package server

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"testing"

	"desksearch"
	"desksearch/internal/vfs"
)

// positionalFixture builds a test server over a positional catalog, so
// snippet requests succeed.
func positionalFixture(t *testing.T) *httptest.Server {
	t.Helper()
	fs := vfs.NewMemFS()
	for name, content := range map[string]string{
		"docs/a.txt": "the annual report was filed before the deadline last march",
		"docs/b.txt": "report drafts pile up",
		"docs/c.txt": "nothing of note",
	} {
		if err := fs.WriteFile(name, []byte(content)); err != nil {
			t.Fatal(err)
		}
	}
	cat, err := desksearch.IndexFS(fs, ".", desksearch.Options{Positions: true, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(Config{Catalog: cat}).Handler())
	t.Cleanup(ts.Close)
	return ts
}

func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatalf("%s: decoding: %v", url, err)
	}
	return resp.StatusCode
}

func TestBM25OverHTTP(t *testing.T) {
	f := newFixture(t, Config{})
	var sr SearchResponse
	if code := f.get(t, "/search?q=report&rank=bm25", &sr); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if sr.Total != 2 {
		t.Fatalf("total = %d, want 2", sr.Total)
	}
	for _, h := range sr.Hits {
		if h.Score <= 0 {
			t.Errorf("%s: BM25 score %v not positive", h.Path, h.Score)
		}
	}
}

func TestPrefixQueryOverHTTP(t *testing.T) {
	f := newFixture(t, Config{})
	var sr SearchResponse
	if code := f.get(t, "/search?q=repor*", &sr); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if sr.Total != 2 {
		t.Errorf("repor* total = %d, want 2", sr.Total)
	}
	if sr.Query != "repor*" {
		t.Errorf("canonical query = %q", sr.Query)
	}
}

func TestSnippetsOverHTTP(t *testing.T) {
	ts := positionalFixture(t)
	var sr SearchResponse
	if code := getJSON(t, ts.URL+"/search?q=report&limit=10&snippets=true", &sr); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if len(sr.Hits) != 2 {
		t.Fatalf("hits = %+v", sr.Hits)
	}
	for _, h := range sr.Hits {
		if h.Snippet == nil {
			t.Fatalf("%s: no snippet in JSON", h.Path)
		}
		if h.Snippet.Text == "" || len(h.Snippet.Highlights) == 0 {
			t.Errorf("%s: empty snippet %+v", h.Path, h.Snippet)
		}
		for _, s := range h.Snippet.Highlights {
			if s.Start < 0 || s.End > len(h.Snippet.Text) || s.Start >= s.End {
				t.Errorf("%s: span %+v out of range", h.Path, s)
			}
		}
	}

	// Without snippets=true the field stays absent from the JSON.
	var plain SearchResponse
	if code := getJSON(t, ts.URL+"/search?q=report&limit=10", &plain); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	for _, h := range plain.Hits {
		if h.Snippet != nil {
			t.Errorf("%s: unsolicited snippet", h.Path)
		}
	}

	// A position-free catalog answers snippet requests with a client error.
	f := newFixture(t, Config{})
	var er struct {
		Error string `json:"error"`
	}
	if code := f.get(t, "/search?q=report&limit=10&snippets=true", &er); code != http.StatusBadRequest {
		t.Errorf("position-free snippets: status %d, want 400", code)
	}
	// Snippets without an explicit limit succeed: the server's default
	// limit satisfies the engine's positive-limit requirement, so HTTP
	// clients can never trip it.
	var defaulted SearchResponse
	if code := getJSON(t, ts.URL+"/search?q=report&snippets=true", &defaulted); code != http.StatusOK {
		t.Errorf("snippets with default limit: status %d, want 200", code)
	} else if len(defaulted.Hits) == 0 || defaulted.Hits[0].Snippet == nil {
		t.Errorf("snippets with default limit: hits = %+v", defaulted.Hits)
	}
	if code := getJSON(t, ts.URL+"/search?q=report&limit=5&snippets=maybe", &er); code != http.StatusBadRequest {
		t.Errorf("bad snippets value: status %d, want 400", code)
	}
}

func TestSuggestEndpoint(t *testing.T) {
	f := newFixture(t, Config{})
	var out SuggestResponse
	if code := f.get(t, "/suggest?q=re", &out); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	// Corpus terms with prefix "re": report (df 2).
	if len(out.Suggestions) != 1 || out.Suggestions[0].Term != "report" || out.Suggestions[0].Files != 2 {
		t.Fatalf("suggestions = %+v", out.Suggestions)
	}
	if out.Prefix != "re" {
		t.Errorf("metadata = %+v", out)
	}

	var capped SuggestResponse
	if code := f.get(t, "/suggest?q=a&n=1", &capped); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if len(capped.Suggestions) != 1 {
		t.Errorf("n=1 returned %d suggestions", len(capped.Suggestions))
	}

	// No completions is an empty JSON array, never null.
	var none struct {
		Suggestions json.RawMessage `json:"suggestions"`
	}
	if code := f.get(t, "/suggest?q=zzzz", &none); code != http.StatusOK || string(none.Suggestions) != "[]" {
		t.Errorf("no completions: status %d, suggestions = %s, want []", code, none.Suggestions)
	}

	var er struct {
		Error string `json:"error"`
	}
	for _, path := range []string{
		"/suggest",             // missing q
		"/suggest?q=",          // empty q
		"/suggest?q=a&n=x",     // bad n
		"/suggest?q=two+words", // multi-term prefix
		"/suggest?q=%2A",       // bare '*'
	} {
		if code := f.get(t, path, &er); code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", path, code)
		}
		if er.Error == "" {
			t.Errorf("%s: missing error message", path)
		}
	}

	// Method discipline: POST is rejected like the other read endpoints.
	resp, err := http.Post(f.ts.URL+"/suggest?q=re", "text/plain", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST /suggest: status %d, want 405", resp.StatusCode)
	}
}

func TestPrefixTooBroadOverHTTP(t *testing.T) {
	f := newFixture(t, Config{})
	var er struct {
		Error string `json:"error"`
		Code  string `json:"code"`
	}
	// The demo corpus is tiny, so any prefix is in-cap; parse-level errors
	// still surface as 400 (a bare '*' has no searchable term).
	if code := f.get(t, "/search?q=%2A", &er); code != http.StatusBadRequest {
		t.Errorf("bare '*': status %d, want 400", code)
	}
}

// TestMaxPrefixTermsOverHTTP drives the per-request expansion cap through
// the HTTP dialect: a cap below a prefix's expansion fails with the
// stable prefix_too_broad code, the same query succeeds with a
// sufficient (or default) cap, and an unparseable cap is rejected.
func TestMaxPrefixTermsOverHTTP(t *testing.T) {
	fs := vfs.NewMemFS()
	// One document holds every zz-term, so whichever partition owns it
	// expands zz* to four dictionary terms.
	if err := fs.WriteFile("z.txt", []byte("zz1 zz2 zz3 zz4 other")); err != nil {
		t.Fatal(err)
	}
	cat, err := desksearch.IndexFS(fs, ".", desksearch.Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(Config{Catalog: cat}).Handler())
	t.Cleanup(ts.Close)

	var er struct {
		Error string `json:"error"`
		Code  string `json:"code"`
	}
	if code := getJSON(t, ts.URL+"/search?q=zz%2A&max_prefix_terms=2", &er); code != http.StatusBadRequest {
		t.Fatalf("cap=2: status %d, want 400", code)
	}
	if er.Code != string(desksearch.CodePrefixTooBroad) {
		t.Errorf("cap=2: code = %q, want %q", er.Code, desksearch.CodePrefixTooBroad)
	}
	for _, q := range []string{
		"/search?q=zz%2A&max_prefix_terms=4",
		"/search?q=zz%2A", // default cap
	} {
		var sr SearchResponse
		if code := getJSON(t, ts.URL+q, &sr); code != http.StatusOK {
			t.Fatalf("%s: status %d, want 200", q, code)
		}
		if sr.Total != 1 {
			t.Errorf("%s: total = %d, want 1", q, sr.Total)
		}
	}
	var bad struct {
		Error string `json:"error"`
	}
	if code := getJSON(t, ts.URL+"/search?q=zz%2A&max_prefix_terms=nope", &bad); code != http.StatusBadRequest {
		t.Errorf("bad cap: status %d, want 400", code)
	}
	if code := getJSON(t, ts.URL+"/search?q=zz%2A&max_prefix_terms=-1", &bad); code != http.StatusBadRequest {
		t.Errorf("negative cap: status %d, want 400", code)
	}
}

// TestWireBodiesPinned pins the bytes of /search and /suggest success
// bodies — field names and order, terms and snippet omitted when absent,
// [] rather than null for no hits and no suggestions — so the hit type the
// engine, the cache, the partial and the JSON encoder all share cannot
// drift on the wire. Only took_ms and duration_us vary run to run.
func TestWireBodiesPinned(t *testing.T) {
	fs := vfs.NewMemFS()
	for name, content := range map[string]string{
		"docs/a.txt": "annual report report",
		"docs/b.txt": "report drafts",
		"docs/c.txt": "nothing",
	} {
		if err := fs.WriteFile(name, []byte(content)); err != nil {
			t.Fatal(err)
		}
	}
	cat, err := desksearch.IndexFS(fs, ".", desksearch.Options{Extractors: 1, Positions: true})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(Config{Catalog: cat}).Handler())
	defer ts.Close()

	clock := regexp.MustCompile(`"(took_ms|duration_us)":[0-9.e+-]+`)
	for path, want := range map[string]string{
		"/search?q=report&rank=tf&snippets=true": `{"query":"report","generation":0,"cached":false,"took_ms":0,"total":2,"hits":[` +
			`{"path":"docs/a.txt","score":2,"terms":["report"],"snippet":{"text":"annual report report","highlights":[{"start":7,"end":13},{"start":14,"end":20}]}},` +
			`{"path":"docs/b.txt","score":1,"terms":["report"],"snippet":{"text":"report drafts","highlights":[{"start":0,"end":6}]}}],` +
			`"partitions":[{"partition":0,"matched":2,"duration_us":0}]}`,
		"/search?q=-report": `{"query":"(NOT report)","generation":0,"cached":false,"took_ms":0,"total":1,"hits":[` +
			`{"path":"docs/c.txt","score":0}],"partitions":[{"partition":0,"matched":1,"duration_us":0}]}`,
		"/search?q=absent": `{"query":"absent","generation":0,"cached":false,"took_ms":0,"total":0,"hits":[],` +
			`"partitions":[{"partition":0,"matched":0,"duration_us":0}]}`,
		"/suggest?q=r":   `{"prefix":"r","generation":0,"took_ms":0,"suggestions":[{"term":"report","files":2}]}`,
		"/suggest?q=zzz": `{"prefix":"zzz","generation":0,"took_ms":0,"suggestions":[]}`,
		// The prefix echoed is the normalized one the suggestions complete.
		"/suggest?q=Repor%2A": `{"prefix":"repor","generation":0,"took_ms":0,"suggestions":[{"term":"report","files":2}]}`,
	} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d, err %v", path, resp.StatusCode, err)
		}
		if got := clock.ReplaceAllString(string(body), `"$1":0`); got != want+"\n" {
			t.Errorf("%s:\n got %s\nwant %s", path, got, want)
		}
	}
}
