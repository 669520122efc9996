package desksearch_test

// The one reference every serving shape is held to. It reads the raw
// corpus bytes and answers each request from the definitions in
// docs/ARCHITECTURE.md ("Answers, by definition" and "Relevance"): the
// term rule, the boolean algebra over each file's term set, phrases as
// consecutive tokens, prefixes over the vocabulary, the three rankings
// from corpus-global statistics, ties by FileID, pages by slicing, and
// snippet windows over token sequences. It never calls the engine's
// parser, tokenizer, search or index code, and it numbers files by the
// documented rule instead of reading Hit.File, so a defect every shape
// shares still shows.

import (
	"cmp"
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"maps"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"

	"desksearch"
	"desksearch/internal/broker"
	"desksearch/internal/search"
	"desksearch/internal/server"
	"desksearch/internal/vfs"
)

// The constants of the definitions, restated from docs/ARCHITECTURE.md
// ("Relevance" and "Answers, by definition"): BM25's k1 and b, the
// snippet radius in tokens, and the longest term the scanner keeps.
const (
	refK1         = 1.2
	refB          = 0.75
	refRadius     = 5
	refMaxTermLen = 64
)

// refTokens splits data by the naive rule: maximal runs of ASCII letters
// and digits, lower-cased, with runs over refMaxTermLen bytes dropped.
func refTokens(data []byte) []string {
	runs := strings.FieldsFunc(string(data), func(r rune) bool {
		return !(r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' || r >= '0' && r <= '9')
	})
	var toks []string
	for _, run := range runs {
		if len(run) <= refMaxTermLen {
			toks = append(toks, strings.ToLower(run))
		}
	}
	return toks
}

// refFile is one FileID's slot: its path, whether it is live, and its
// token sequence.
type refFile struct {
	path string
	live bool
	toks []string
}

// ref is the reference: the corpus as FileID slots.
type ref struct{ files []refFile }

// update numbers the files of corpus by the FileID rule: a file still
// present keeps its ID and is re-read, a vanished one is retired, and new
// paths get the next IDs in walk order (depth-first, each directory's
// entries by name, which compares paths component by component). On an
// empty ref that is a build's numbering.
func (r *ref) update(corpus map[string][]byte) {
	held := map[string]bool{}
	for i := range r.files {
		if f := &r.files[i]; f.live {
			data, ok := corpus[f.path]
			f.live, f.toks, held[f.path] = ok, refTokens(data), ok
		}
	}
	var added []string
	for path := range corpus {
		if !held[path] {
			added = append(added, path)
		}
	}
	sort.Slice(added, func(i, j int) bool {
		return slices.Compare(strings.Split(added[i], "/"), strings.Split(added[j], "/")) < 0
	})
	for _, path := range added {
		r.files = append(r.files, refFile{path: path, live: true, toks: refTokens(corpus[path])})
	}
}

// qnode is a query syntax tree: the generator builds it, the reference
// evaluates it, and only its text reaches the engine.
type qnode struct {
	op    byte     // 't' term, 'p' prefix, 'q' phrase, '&' AND, '|' OR, '!' NOT
	words []string // the term, the prefix, or the phrase's words
	kids  []*qnode
}

// match reports whether a file with tokens toks satisfies n.
func (n *qnode) match(toks []string) bool {
	switch n.op {
	case 't':
		return slices.Contains(toks, n.words[0])
	case 'p':
		return slices.ContainsFunc(toks, func(t string) bool { return strings.HasPrefix(t, n.words[0]) })
	case 'q':
		for i := 0; i+len(n.words) <= len(toks); i++ {
			if slices.Equal(toks[i:i+len(n.words)], n.words) {
				return true
			}
		}
		return false
	case '!':
		return !n.kids[0].match(toks)
	}
	// AND stops at the first kid that fails, OR at the first that holds.
	or := n.op == '|'
	for _, k := range n.kids {
		if k.match(toks) == or {
			return or
		}
	}
	return !or
}

// labels returns the score labels of n: the positive terms (phrase words
// included) at first appearance under an even number of NOTs, then the
// distinct prefixes under an even number of NOTs.
func (n *qnode) labels() (terms, prefixes []string) {
	var walk func(n *qnode, negated bool)
	walk = func(n *qnode, negated bool) {
		switch {
		case n.op == '!':
			walk(n.kids[0], !negated)
		case len(n.kids) > 0:
			for _, k := range n.kids {
				walk(k, negated)
			}
		case negated:
		case n.op == 'p':
			if !slices.Contains(prefixes, n.words[0]) {
				prefixes = append(prefixes, n.words[0])
			}
		default:
			for _, w := range n.words {
				if !slices.Contains(terms, w) {
					terms = append(terms, w)
				}
			}
		}
	}
	walk(n, false)
	return terms, prefixes
}

// oracleReq is one request: the tree, the text the engine parses, the
// retrieval controls, what to ask Suggest and TopTerms beside it, and the
// reference's answers to all three, with the FileIDs of every match.
type oracleReq struct {
	tree              *qnode
	text              string
	rank              desksearch.Ranking
	limit, offset     int
	snippets          bool
	pathPrefix        string
	suggest           string
	suggestN, topTerm int
	want              *desksearch.Response
	matched           []int
	wantSuggest       []desksearch.Suggestion
	wantTop           []desksearch.Suggestion
}

func (q oracleReq) String() string {
	return fmt.Sprintf("%q rank=%s limit=%d offset=%d snippets=%v prefix=%q",
		q.text, q.rank, q.limit, q.offset, q.snippets, q.pathPrefix)
}

func (q oracleReq) query() desksearch.Query {
	return desksearch.Query{Text: q.text, Ranking: q.rank, Limit: q.limit, Offset: q.offset,
		Snippets: q.snippets, PathPrefix: q.pathPrefix}
}

// answer answers q by definition: the page, the total, and the BM25
// statistics the scores come from, with the FileIDs of every match.
func (r *ref) answer(q oracleReq) (*desksearch.Response, []int) {
	terms, prefixes := q.tree.labels()
	labels := append(slices.Clone(terms), prefixes...)
	// tf of label i in a file; a prefix counts every token it starts.
	tf := func(toks []string, i int) (n int) {
		for _, t := range toks {
			if i < len(terms) && t == labels[i] || i >= len(terms) && strings.HasPrefix(t, labels[i]) {
				n++
			}
		}
		return n
	}
	dfs := make([]int, len(labels))
	df := &desksearch.DocFreqs{Terms: dfs[:len(terms)], Prefixes: dfs[len(terms):]}
	for _, f := range r.files {
		if f.live {
			df.Docs++
			df.Tokens += uint64(len(f.toks))
			for i := range labels {
				if tf(f.toks, i) > 0 {
					dfs[i]++
				}
			}
		}
	}
	avgdl := 1.0
	if df.Docs > 0 && df.Tokens > 0 {
		avgdl = float64(df.Tokens) / float64(df.Docs)
	}

	var hits []desksearch.Hit
	var ids []int
	for id, f := range r.files {
		if !f.live || !strings.HasPrefix(f.path, q.pathPrefix) || !q.tree.match(f.toks) {
			continue
		}
		h := desksearch.Hit{Path: f.path}
		for i, label := range labels {
			n := float64(tf(f.toks, i))
			if n == 0 {
				continue
			}
			switch q.rank {
			case desksearch.RankCount:
				h.Score++
			case desksearch.RankTF:
				h.Score += n
			default:
				N, d := float64(df.Docs), float64(dfs[i])
				idf := math.Log(max(1+(N-d+0.5)/(d+0.5), math.SmallestNonzeroFloat64))
				h.Score += idf * (n * (refK1 + 1)) / (n + refK1*(1-refB+refB*float64(len(f.toks))/avgdl))
			}
			if i >= len(terms) {
				label += "*"
			}
			if i < 64 {
				h.Terms = append(h.Terms, label)
			}
		}
		if q.snippets {
			h.Snippet = snippet(f.toks, terms, prefixes)
		}
		hits, ids = append(hits, h), append(ids, id)
	}
	order := make([]int, len(hits))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		ha, hb := hits[order[a]], hits[order[b]]
		return ha.Score > hb.Score || ha.Score == hb.Score && ids[order[a]] < ids[order[b]]
	})
	order = order[min(q.offset, len(order)):]
	if q.limit > 0 {
		order = order[:min(q.limit, len(order))]
	}
	resp := &desksearch.Response{Total: len(hits), DF: df}
	for _, o := range order {
		resp.Hits = append(resp.Hits, hits[o])
	}
	return resp, ids
}

// shard is the shard of an n-shard catalog that counts FileID id among
// its matches: the one holding the file's postings, FNV-1 over the ID's
// four little-endian bytes modulo n, or shard 0 for a file with no term,
// whose postings no shard holds.
func (r *ref) shard(id, n int) int {
	if len(r.files[id].toks) == 0 {
		return 0
	}
	h := fnv.New32()
	h.Write([]byte{byte(id), byte(id >> 8), byte(id >> 16), byte(id >> 24)})
	return int(h.Sum32() % uint32(n))
}

// snippet is the window of refRadius tokens each side of the earliest
// token that is a positive term or starts with a scoring prefix, clamped
// to the file, joined by single spaces, with every such token
// highlighted; nil when the file has none.
func snippet(toks, terms, prefixes []string) *desksearch.Snippet {
	hit := func(t string) bool {
		return slices.Contains(terms, t) || slices.ContainsFunc(prefixes, func(p string) bool { return strings.HasPrefix(t, p) })
	}
	anchor := slices.IndexFunc(toks, hit)
	if anchor < 0 {
		return nil
	}
	s := &desksearch.Snippet{}
	for _, t := range toks[max(anchor-refRadius, 0):min(anchor+refRadius+1, len(toks))] {
		if s.Text != "" {
			s.Text += " "
		}
		if hit(t) {
			s.Highlights = append(s.Highlights, desksearch.Span{Start: len(s.Text), End: len(s.Text) + len(t)})
		}
		s.Text += t
	}
	return s
}

// suggest answers Suggest by definition: the live terms starting with
// prefix by descending document frequency, then ascending term, at most n
// (10 when n <= 0).
func (r *ref) suggest(prefix string, n int) []desksearch.Suggestion {
	df := map[string]int{}
	for _, f := range r.files {
		if !f.live {
			continue
		}
		for _, t := range slices.Compact(slices.Sorted(slices.Values(f.toks))) {
			if strings.HasPrefix(t, prefix) {
				df[t]++
			}
		}
	}
	out := []desksearch.Suggestion{}
	for term, files := range df {
		out = append(out, desksearch.Suggestion{Term: term, Files: files})
	}
	sort.Slice(out, func(i, j int) bool {
		return out[i].Files > out[j].Files || out[i].Files == out[j].Files && out[i].Term < out[j].Term
	})
	if n <= 0 {
		n = 10
	}
	return out[:min(n, len(out))]
}

// ---- generation: corpora, updates and requests ----

// chooser is the one source of choices: a seeded rand.Rand in the
// property test, the fuzzer's bytes in FuzzQueryOracle.
type chooser interface{ Intn(n int) int }

// byteChooser draws choices from fuzz input; once it runs dry every
// choice is 0, which the generators treat as "stop growing".
type byteChooser struct{ b []byte }

func (c *byteChooser) Intn(n int) int {
	if len(c.b) == 0 {
		return 0
	}
	v := int(c.b[0])
	c.b = c.b[1:]
	return v % n
}

// pick returns one of s.
func pick[T any](c chooser, s ...T) T { return s[c.Intn(len(s))] }

var (
	// oracleStems glue into a vocabulary with shared prefixes and digits.
	oracleStems = []string{"re", "port", "an", "nual", "mil", "k", "dra", "ft", "b", "2024", "x9", "e"}
	// oracleDirs mix a directory with names that sort between it and its
	// contents ("a-b", "a.d"), so walk order is not sorted path order.
	oracleDirs = []string{"", "a/", "a-b/", "a.d/", "a/x/", "B/", "d0/"}
	// oracleSeps are punctuation, whitespace and non-ASCII bytes alike.
	oracleSeps = []string{" ", " ", " ", "  ", ", ", ".\n", "\t", "-", "/", "\xc3\xa9", "'", "_"}
)

// oracleCorpus is a corpus kept twice: in the MemFS the engine reads and
// in the map the reference reads.
type oracleCorpus struct {
	fs    *vfs.MemFS
	files map[string][]byte
	vocab []string
}

// newOracleCorpus writes nFiles files over a vocabulary of 30 words, one
// of them exactly refMaxTermLen bytes long.
func newOracleCorpus(t testing.TB, c chooser, nFiles int) *oracleCorpus {
	oc := &oracleCorpus{fs: vfs.NewMemFS(), files: map[string][]byte{}, vocab: []string{strings.Repeat("q", refMaxTermLen)}}
	for len(oc.vocab) < 30 {
		w := ""
		for n := 1 + c.Intn(3); n > 0; n-- {
			w += pick(c, oracleStems...)
		}
		if !slices.Contains(oc.vocab, w) {
			oc.vocab = append(oc.vocab, w)
		}
	}
	for i := 0; i < nFiles; i++ {
		oc.write(t, c, fmt.Sprintf("%sf%02d.txt", pick(c, oracleDirs...), i))
	}
	return oc
}

// write gives path new content: skewed word choices in mixed case,
// repeated words, over-long runs and, one file in ten, no term at all.
func (oc *oracleCorpus) write(t testing.TB, c chooser, path string) {
	b := []byte("-- " + strings.Repeat("zz", 1+refMaxTermLen/2))
	if c.Intn(10) > 0 {
		b = b[:0]
		for n := c.Intn(40); n > 0; n-- {
			w := oc.vocab[min(c.Intn(len(oc.vocab)), c.Intn(len(oc.vocab)))]
			switch c.Intn(12) {
			case 0:
				w = strings.ToUpper(w)
			case 1:
				w = strings.ToUpper(w[:1]) + w[1:]
			case 2:
				w = strings.Repeat(w, 1+2*refMaxTermLen/len(w)) // dropped
			case 3:
				w += " " + w
			}
			b = append(b, w+pick(c, oracleSeps...)...)
		}
	}
	if err := oc.fs.WriteFile(path, b); err != nil {
		t.Fatal(err)
	}
	oc.files[path] = b
}

// churn adds, modifies and deletes a few files; an added path may be one
// deleted earlier, which the FileID rule makes a new file.
func (oc *oracleCorpus) churn(t testing.TB, c chooser) {
	for n := 2 + c.Intn(6); n > 0; n-- {
		live := slices.Sorted(maps.Keys(oc.files))
		switch op := c.Intn(3); {
		case op == 0 || len(live) < 4:
			oc.write(t, c, fmt.Sprintf("%sf%02d.txt", pick(c, oracleDirs...), c.Intn(60)))
		case op == 1:
			oc.write(t, c, pick(c, live...))
		default:
			path := pick(c, live...)
			if err := oc.fs.Remove(path); err != nil {
				t.Fatal(err)
			}
			delete(oc.files, path)
		}
	}
}

// genTree grows a query tree over words and phrases; depth bounds the
// nesting.
func genTree(c chooser, words []string, phrases [][]string, depth int) *qnode {
	k := c.Intn(10)
	if depth <= 0 {
		k %= 5
	}
	switch {
	case k < 3:
		return &qnode{op: 't', words: []string{pick(c, words...)}}
	case k == 3:
		w := pick(c, words...)
		return &qnode{op: 'p', words: []string{w[:1+c.Intn(min(3, len(w)))]}}
	case k == 4 && len(phrases) > 0 && c.Intn(3) > 0:
		return &qnode{op: 'q', words: pick(c, phrases...)}
	case k == 4:
		return &qnode{op: 'q', words: []string{pick(c, words...), pick(c, words...)}}
	case k == 9:
		return &qnode{op: '!', kids: []*qnode{genTree(c, words, phrases, depth-1)}}
	}
	n := &qnode{op: "&&|||"[k-5]}
	for i := 2 + c.Intn(2); i > 0; i-- {
		n.kids = append(n.kids, genTree(c, words, phrases, depth-1))
	}
	return n
}

// canonical renders the tree in the canonical form a /search response
// echoes: terms bare but the keywords quoted, a prefix with its '*', a
// phrase's words quoted, AND and OR their operands joined in parentheses,
// NOT as (NOT x).
func (n *qnode) canonical() string {
	switch n.op {
	case 't':
		if slices.Contains([]string{"and", "or", "not"}, n.words[0]) {
			return `"` + n.words[0] + `"`
		}
		return n.words[0]
	case 'p':
		return n.words[0] + "*"
	case 'q':
		return `"` + strings.Join(n.words, " ") + `"`
	case '!':
		return "(NOT " + n.kids[0].canonical() + ")"
	}
	parts := make([]string, len(n.kids))
	for i, k := range n.kids {
		parts[i] = k.canonical()
	}
	sep := " AND "
	if n.op == '|' {
		sep = " OR "
	}
	return "(" + strings.Join(parts, sep) + ")"
}

// text writes the tree as query text, varying what the grammar lets
// vary: case, keyword spelling, "-" for NOT, and trailing punctuation.
func (n *qnode) text(c chooser) string {
	mangle := func(w string) string {
		return pick(c, w, w, strings.ToUpper(w), strings.ToUpper(w[:1])+w[1:])
	}
	// paren brackets a compound kid; AND and OR leave a NOT bare.
	paren := func(k *qnode) string {
		if len(k.kids) > 0 && (n.op == '!' || k.op != '!') {
			return "(" + k.text(c) + ")"
		}
		return k.text(c)
	}
	var parts []string
	switch n.op {
	case 't':
		return mangle(n.words[0]) + pick(c, "", "", "!", ",")
	case 'p':
		return mangle(n.words[0]) + "*"
	case 'q':
		for _, w := range n.words {
			parts = append(parts, mangle(w))
		}
		return `"` + strings.Join(parts, pick(c, " ", ", ", ". ")) + `"`
	case '!':
		return pick(c, "-", "NOT ", "not ") + paren(n.kids[0])
	}
	for _, k := range n.kids {
		parts = append(parts, paren(k))
	}
	if n.op == '&' {
		return strings.Join(parts, pick(c, " ", " AND ", " and "))
	}
	return strings.Join(parts, pick(c, " OR ", " or "))
}

// genRequest draws a request over r's live terms: a tree, its text, a
// ranking, random limit, offset, snippets and path filter, and what to
// ask Suggest and TopTerms.
func (r *ref) genRequest(c chooser) oracleReq {
	var words []string
	for _, s := range r.suggest("", math.MaxInt) {
		words = append(words, s.Term)
	}
	words = append(words, "absent")
	var phrases [][]string
	for _, f := range r.files {
		if f.live && len(f.toks) >= 3 {
			i := c.Intn(len(f.toks) - 2)
			phrases = append(phrases, f.toks[i:i+2+c.Intn(2)])
		}
	}
	q := oracleReq{tree: genTree(c, words, phrases, 3), rank: desksearch.Ranking(c.Intn(3))}
	q.text = q.tree.text(c)
	if c.Intn(3) > 0 {
		q.limit, q.snippets = 1+c.Intn(15), c.Intn(2) == 0
	}
	switch c.Intn(6) {
	case 0, 1:
		q.offset = c.Intn(20)
	case 2:
		q.offset = len(r.files) + c.Intn(3) // past every match
	}
	if c.Intn(6) == 0 {
		q.pathPrefix = pick(c, "a", "a/", "B/", "d0/")
	}
	w := pick(c, words...)
	q.suggest, q.suggestN, q.topTerm = w[:1+c.Intn(len(w))], c.Intn(12), 1+c.Intn(8)
	q.want, q.matched = r.answer(q)
	q.wantSuggest, q.wantTop = r.suggest(q.suggest, q.suggestN), r.suggest("", q.topTerm)
	return q
}

// ---- the shapes ----

// oracleShape is one way of serving the corpus from a directory or build
// of shards shards. ask answers a request with Partitions numbered by
// shard. suggest, when set, answers Suggest. cat is set for the shapes
// that are one catalog, whose top terms and statistics are checked too.
type oracleShape struct {
	name    string
	shards  int
	ask     func(q oracleReq) (*desksearch.Response, error)
	suggest func(prefix string, n int) ([]desksearch.Suggestion, error)
	cat     *desksearch.Catalog
}

func catalogShape(name string, cat *desksearch.Catalog) oracleShape {
	return oracleShape{name: name, shards: cat.TotalShards(), cat: cat,
		ask: func(q oracleReq) (*desksearch.Response, error) { return queryByShard(cat, q.query()) },
		suggest: func(prefix string, n int) ([]desksearch.Suggestion, error) {
			return cat.Suggest(context.Background(), prefix, n)
		}}
}

// queryByShard asks cat and numbers the response's Partitions by shard,
// where the engine numbers them by their place in the catalog.
func queryByShard(cat *desksearch.Catalog, q desksearch.Query) (*desksearch.Response, error) {
	resp, err := cat.Query(context.Background(), q)
	if err != nil {
		return nil, err
	}
	ids := cat.PartitionIDs()
	for i := range resp.Partitions {
		resp.Partitions[i].Partition = ids[resp.Partitions[i].Partition]
	}
	return resp, nil
}

// subsetShape serves the corpus from worker subsets of one directory the
// way a broker does, in process: summed DocFreqs as GlobalDF, each
// subset's top limit+offset, search.MergeRankedPage, then the page.
func subsetShape(name string, subs ...*desksearch.Catalog) oracleShape {
	return oracleShape{name: name, shards: subs[0].TotalShards(), ask: func(q oracleReq) (*desksearch.Response, error) {
		ctx := context.Background()
		resp := &desksearch.Response{}
		for i := 0; q.rank == desksearch.RankBM25 && i < len(subs); i++ {
			df, err := subs[i].DocFreqs(ctx, q.query())
			if err != nil {
				return nil, err
			}
			if resp.DF == nil {
				resp.DF = df
			} else if !resp.DF.Add(df) {
				return nil, fmt.Errorf("DocFreqs shapes differ")
			}
		}
		k := 0
		if q.limit > 0 {
			k = q.limit + q.offset
		}
		var parts [][]desksearch.Hit
		for _, sub := range subs {
			sq := q.query()
			sq.Limit, sq.Offset, sq.GlobalDF = k, 0, resp.DF
			r, err := queryByShard(sub, sq)
			if err != nil {
				return nil, err
			}
			parts = append(parts, r.Hits)
			resp.Total += r.Total
			resp.Partitions = append(resp.Partitions, r.Partitions...)
		}
		resp.Hits = search.MergeRankedPage(parts, k)
		resp.Hits = resp.Hits[min(q.offset, len(resp.Hits)):]
		if q.limit > 0 {
			resp.Hits = resp.Hits[:min(q.limit, len(resp.Hits))]
		}
		return resp, nil
	}}
}

// brokerShape asks the /search and /suggest of a broker over a directory
// of shards shards, and requires /search to echo the query's canonical
// form. A limit of 0 becomes the front door's cap of 1000, above any
// corpus here.
func brokerShape(name, base string, shards int) oracleShape {
	get := func(path string, params url.Values, body any) error {
		resp, err := http.Get(base + path + "?" + params.Encode())
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("%s: %s", path, resp.Status)
		}
		return json.NewDecoder(resp.Body).Decode(body)
	}
	return oracleShape{name: name, shards: shards, ask: func(q oracleReq) (*desksearch.Response, error) {
		var body server.SearchResponse
		if err := get("/search", url.Values{"q": {q.text}, "rank": {q.rank.String()}, "limit": {strconv.Itoa(q.limit)},
			"offset": {strconv.Itoa(q.offset)}, "snippets": {strconv.FormatBool(q.snippets)}, "prefix": {q.pathPrefix}}, &body); err != nil {
			return nil, err
		}
		if want := q.tree.canonical(); body.Query != want {
			return nil, fmt.Errorf("/search echoes %q, want %q", body.Query, want)
		}
		resp := &desksearch.Response{Hits: body.Hits, Total: body.Total}
		for _, p := range body.Partitions {
			resp.Partitions = append(resp.Partitions, desksearch.PartitionTiming{Partition: p.Partition, Matched: p.Matched})
		}
		return resp, nil
	}, suggest: func(prefix string, n int) ([]desksearch.Suggestion, error) {
		params := url.Values{"q": {prefix}}
		if n > 0 {
			params.Set("n", strconv.Itoa(n))
		}
		var body server.SuggestResponse
		err := get("/suggest", params, &body)
		return body.Suggestions, err
	}}
}

// autoTuple reports whether opt leaves the thread tuple to the machine.
func autoTuple(opt desksearch.Options) bool { return opt.Extractors == 0 && opt.Updaters == 0 }

// buildShapes builds oc's corpus under every option set and, for each n
// in saves, saves the default tuple's n-shard build (which opts must hold)
// into dirs[n] and loads it back as one more shape.
func buildShapes(t testing.TB, oc *oracleCorpus, opts []desksearch.Options, saves ...int) (shapes []oracleShape, dirs map[int]string) {
	dirs = map[int]string{}
	for _, opt := range opts {
		cat, err := desksearch.IndexFS(oc.fs, ".", opt)
		if err != nil {
			t.Fatalf("%+v: %v", opt, err)
		}
		if n := opt.Shards; n > 0 && (cat.Indices() != n || cat.TotalShards() != n) {
			t.Fatalf("%+v: %d partitions of %d", opt, cat.Indices(), cat.TotalShards())
		}
		tuple := fmt.Sprintf("(%d, %d)", opt.Extractors, opt.Updaters)
		if autoTuple(opt) {
			tuple = "auto"
		}
		shapes = append(shapes, catalogShape(fmt.Sprintf("IndexFS %s, %d shards", tuple, opt.Shards), cat))
		if slices.Contains(saves, opt.Shards) && autoTuple(opt) {
			dirs[opt.Shards] = t.TempDir()
			if err := cat.SaveDir(dirs[opt.Shards]); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, n := range saves {
		loaded, err := desksearch.LoadDir(dirs[n])
		if err != nil {
			t.Fatal(err)
		}
		if loaded.Indices() != n || loaded.Lazy() {
			t.Fatalf("LoadDir: %d partitions, lazy %v; want %d on the heap", loaded.Indices(), loaded.Lazy(), n)
		}
		shapes = append(shapes, catalogShape(fmt.Sprintf("LoadDir of the %d-shard save", n), loaded))
	}
	return shapes, dirs
}

// serveDir opens the served shapes of a saved 4-shard directory: lazily
// with the default block cache and with one of a few KiB, as merged
// subsets {0,2},{1},{3}, and as a broker over two workers {0,2} and
// {1,3}. The returned function closes them all.
func serveDir(t testing.TB, dir string) ([]oracleShape, func()) {
	var closers []func()
	open := func(ids []int, opt desksearch.Options) *desksearch.Catalog {
		open := func() (*desksearch.Catalog, error) { return desksearch.OpenDirShards(dir, ids, opt) }
		if ids == nil {
			open, ids = func() (*desksearch.Catalog, error) { return desksearch.OpenDir(dir, opt) }, []int{0, 1, 2, 3}
		}
		cat, err := open()
		if err != nil {
			t.Fatalf("open %s %v: %v", dir, ids, err)
		}
		if cat.Indices() != len(ids) || cat.TotalShards() != 4 || !cat.Lazy() {
			t.Fatalf("open %s %v: %d partitions of %d, lazy %v", dir, ids, cat.Indices(), cat.TotalShards(), cat.Lazy())
		}
		closers = append(closers, func() { cat.Close() })
		return cat
	}
	serve := func(h http.Handler) string {
		ts := httptest.NewServer(h)
		closers = append(closers, ts.Close)
		return ts.URL
	}
	worker := func(ids ...int) string {
		return serve(server.New(server.Config{Catalog: open(ids, desksearch.Options{}), Worker: true}).Handler())
	}
	b, err := broker.New(broker.Config{Groups: [][]string{{worker(0, 2)}, {worker(1, 3)}}})
	if err == nil {
		err = b.CheckTopology(context.Background())
	}
	if err != nil {
		t.Fatal(err)
	}
	none := desksearch.Options{}
	return []oracleShape{
			catalogShape("OpenDir", open(nil, none)),
			catalogShape("OpenDir, 4 KiB block cache", open(nil, desksearch.Options{BlockCacheBytes: 4 << 10})),
			subsetShape("OpenDirShards {0,2},{1},{3}", open([]int{0, 2}, none), open([]int{1}, none), open([]int{3}, none)),
			brokerShape("broker", serve(b.Handler()), 4),
		}, func() {
			for _, c := range closers {
				c()
			}
		}
}

// ---- the check ----

// render writes hits in a form that compares every field the reference
// states, scores by their bits.
func render(hits []desksearch.Hit) []string {
	out := make([]string, len(hits))
	for i, h := range hits {
		out[i] = fmt.Sprintf("%s score=%016x (%v) terms=%q", h.Path, math.Float64bits(h.Score), h.Score, h.Terms)
		if h.Snippet != nil {
			out[i] += fmt.Sprintf(" snippet=%q %v", h.Snippet.Text, h.Snippet.Highlights)
		}
	}
	return out
}

// checkShape holds one shape to the reference on every request — the
// page, the total, the statistics, each partition's matches and the
// suggestions — and a one-catalog shape's top terms, statistics and block
// cache budget too.
func checkShape(t testing.TB, r *ref, s oracleShape, reqs ...oracleReq) {
	t.Helper()
	for _, q := range reqs {
		want := q.want
		got, err := s.ask(q)
		if err != nil {
			t.Fatalf("%s: %v: %v", s.name, q, err)
		}
		if got.Total != want.Total {
			t.Fatalf("%s: %v: total %d, want %d", s.name, q, got.Total, want.Total)
		}
		if g, w := render(got.Hits), render(want.Hits); !slices.Equal(g, w) {
			t.Fatalf("%s: %v:\n got %q\nwant %q", s.name, q, g, w)
		}
		if got.DF != nil && fmt.Sprint(*got.DF) != fmt.Sprint(*want.DF) {
			t.Fatalf("%s: %v: DocFreqs %+v, want %+v", s.name, q, *got.DF, *want.DF)
		}
		sum := 0
		for _, p := range got.Partitions {
			n := 0
			for _, id := range q.matched {
				if r.shard(id, s.shards) == p.Partition {
					n++
				}
			}
			if p.Matched != n {
				t.Fatalf("%s: %v: shard %d matched %d, want %d", s.name, q, p.Partition, p.Matched, n)
			}
			sum += n
		}
		if sum != want.Total {
			t.Fatalf("%s: %v: partitions match %d, want %d", s.name, q, sum, want.Total)
		}
		// Summing the local top n of several catalogs is exact when fewer
		// than n terms start with the prefix: then no list was cut.
		if s.suggest != nil && (s.cat != nil || len(q.wantSuggest) < cmp.Or(q.suggestN, 10)) {
			sug, err := s.suggest(q.suggest, q.suggestN)
			if err != nil || fmt.Sprint(sug) != fmt.Sprint(q.wantSuggest) {
				t.Fatalf("%s: Suggest(%q, %d) = %v, %v; want %v", s.name, q.suggest, q.suggestN, sug, err, q.wantSuggest)
			}
		}
		if s.cat == nil {
			continue
		}
		if got := s.cat.TopTerms(q.topTerm); fmt.Sprint(got) != fmt.Sprint(q.wantTop) {
			t.Fatalf("%s: TopTerms(%d) = %v, want %v", s.name, q.topTerm, got, q.wantTop)
		}
	}
	if s.cat == nil {
		return
	}
	if budget, used, ok := s.cat.BlockCache(); ok && used > budget {
		t.Fatalf("%s: block cache holds %d bytes, budget %d", s.name, used, budget)
	}
	vocab := r.suggest("", math.MaxInt)
	want := desksearch.Stats{Terms: len(vocab)}
	for _, f := range r.files {
		if f.live {
			want.Files++
		}
	}
	for _, v := range vocab {
		want.Postings += int64(v.Files)
	}
	if got := s.cat.Stats(); got != want {
		t.Fatalf("%s: Stats %+v, want %+v", s.name, got, want)
	}
}

// oracleBuilds are the build shapes: IndexFS with 1–5 shards under the
// default tuple, and the sequential baseline (1, 0). Another tuple builds
// the same partitions (TestBuildIsAFunctionOfTheCorpus), so it would
// answer the same.
var oracleBuilds = []desksearch.Options{
	{Positions: true, Shards: 1},
	{Positions: true, Shards: 2},
	{Positions: true, Shards: 3},
	{Positions: true, Shards: 4},
	{Positions: true, Shards: 5},
	{Positions: true, Extractors: 1},
}

// TestEveryShapeMatchesOracle holds every serving shape to the reference
// on random corpora and requests, before and after a random sequence of
// updates: the builds, LoadDir of a 1- and a 4-shard save, and the served
// shapes of the 4-shard directory (serveDir). The updates reach the
// builds and the loaded catalogs through Update, and the directory as the
// updated 4-shard catalog saved back into it.
func TestEveryShapeMatchesOracle(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			oc := newOracleCorpus(t, rng, 15+rng.Intn(35))
			r := &ref{}
			r.update(oc.files)
			updatable, dirs := buildShapes(t, oc, oracleBuilds, 1, 4)
			for _, stage := range []string{"built", "updated"} {
				if stage == "updated" {
					for round := 0; round < 2; round++ {
						oc.churn(t, rng)
						r.update(oc.files)
						for _, s := range updatable {
							if _, err := s.cat.Update(oc.fs, "."); err != nil {
								t.Fatalf("%s: Update: %v", s.name, err)
							}
						}
					}
					if err := updatable[len(updatable)-1].cat.SaveDir(dirs[4]); err != nil {
						t.Fatal(err)
					}
				}
				reqs := make([]oracleReq, 40)
				for i := range reqs {
					reqs[i] = r.genRequest(rng)
				}
				for _, s := range updatable {
					s.name += " (" + stage + ")"
					checkShape(t, r, s, reqs...)
				}
				served, closeAll := serveDir(t, dirs[4])
				for _, s := range served {
					s.name += " (" + stage + ")"
					checkShape(t, r, s, reqs...)
				}
				closeAll()
			}
		})
	}
}

// oracleWorlds caches FuzzQueryOracle's references and shapes by corpus
// seed, so the fuzzer spends its time on requests.
var oracleWorlds = struct {
	sync.Mutex
	m map[int64]oracleWorld
}{m: map[int64]oracleWorld{}}

type oracleWorld struct {
	ref    *ref
	shapes []oracleShape
}

// FuzzQueryOracle holds a built 1-shard and 3-shard catalog and a LoadDir
// of the 3-shard save to the reference on a request the fuzzer's bytes
// choose — tree, text, ranking and controls — over one of eight corpora
// the seed picks.
func FuzzQueryOracle(f *testing.F) {
	f.Add(int64(0), []byte("\x07\x05\x00\x02\x01\x03"))
	f.Add(int64(3), []byte("\x09\x06\x04\x01\x00\x02\x02\x05\x01\x01"))
	f.Add(int64(5), []byte(`NOT (a* OR "b c") d`))
	f.Fuzz(func(t *testing.T, seed int64, prog []byte) {
		w := func() oracleWorld {
			oracleWorlds.Lock()
			defer oracleWorlds.Unlock()
			w, ok := oracleWorlds.m[seed&7]
			if !ok {
				oc := newOracleCorpus(t, rand.New(rand.NewSource(seed&7)), 30)
				w.ref = &ref{}
				w.ref.update(oc.files)
				w.shapes, _ = buildShapes(t, oc, []desksearch.Options{{Positions: true, Shards: 1}, {Positions: true, Shards: 3}}, 3)
				oracleWorlds.m[seed&7] = w
			}
			return w
		}()
		q := w.ref.genRequest(&byteChooser{b: prog})
		for _, s := range w.shapes {
			checkShape(t, w.ref, s, q)
		}
	})
}
