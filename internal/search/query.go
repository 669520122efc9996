// Package search implements the query side of desktop search — the paper's
// named future work ("integrate the search query functionality and
// parallelize it as well, for instance by using multiple indices").
//
// Queries are boolean: terms combine with implicit AND, the OR and NOT
// keywords, parentheses, and quoted phrases ("annual report"), which match
// only consecutive occurrences and need an index built with token
// positions. Execution fans out in parallel over a catalog's partitions —
// the hash-routed partitions every build yields (shard.ShardFor), one or
// many, or a worker's subset of a saved directory. Because every file's
// term block lands in exactly one partition, any per-file predicate —
// phrase adjacency included, since a file's positions live together with
// its postings — evaluates correctly partition by partition; the final
// result is the union of per-partition results.
package search

import (
	"fmt"
	"slices"
	"strings"

	"desksearch/internal/tokenize"
)

// Query is a parsed boolean query, reusable across requests (the facade
// exports it as desksearch.Expr).
type Query struct {
	root node
	// positive lists the non-negated terms, used for ranking.
	positive []string
	// prefixes lists every prefix operator's normalized prefix text, in
	// parse order; prefixNode.ord indexes it, and per-partition expansions
	// are precomputed parallel to it before evaluation fans out.
	prefixes []string
	// scorePrefixes lists the ordinals of the distinct non-negated
	// prefixes (first occurrence wins), the prefix counterpart of
	// positive: each scores as one pseudo-term appended after the positive
	// terms, in this order.
	scorePrefixes []int
	// hasPhrase records whether the query contains a multi-term phrase
	// anywhere, so evaluation can reject position-free partitions up
	// front — before any short-circuit could otherwise skip the phrase
	// node and make the error depend on term order.
	hasPhrase bool
}

// node is a query AST node.
type node interface {
	// String renders the node in canonical form.
	String() string
}

type termNode struct{ term string }
type andNode struct{ kids []node }
type orNode struct{ kids []node }
type notNode struct{ kid node }

// phraseNode matches files containing its terms at consecutive token
// positions — the quoted-phrase operator. Always ≥ 2 terms: a one-term
// quote parses to a plain termNode.
type phraseNode struct{ terms []string }

// prefixNode matches files containing any term that starts with prefix —
// the trailing-wildcard operator ("repor*"), evaluated by term-dictionary
// expansion. ord is the node's position in Query.prefixes, which indexes
// the per-partition expansion unions.
type prefixNode struct {
	prefix string
	ord    int
}

func (n termNode) String() string {
	// The keywords double as legal index terms ("not", from input like
	// "Not!"); rendering them bare would re-parse as the operator, so the
	// canonical form quotes them (a one-word phrase parses back to a plain
	// term). Keeps Parse(q.String()) a fixed point — the property cache
	// keys rely on.
	switch n.term {
	case "and", "or", "not":
		return `"` + n.term + `"`
	}
	return n.term
}

func (n phraseNode) String() string { return `"` + strings.Join(n.terms, " ") + `"` }

// A prefix renders as its canonical trailing-wildcard form. Keyword
// prefixes need no quoting: "and*" re-lexes as a prefix token, not the AND
// operator, so Parse(q.String()) stays a fixed point.
func (n prefixNode) String() string { return n.prefix + "*" }

func (n andNode) String() string { return "(" + joinNodes(n.kids, " AND ") + ")" }

func (n orNode) String() string { return "(" + joinNodes(n.kids, " OR ") + ")" }

func (n notNode) String() string { return "(NOT " + n.kid.String() + ")" }

func joinNodes(kids []node, sep string) string {
	parts := make([]string, len(kids))
	for i, k := range kids {
		parts[i] = k.String()
	}
	return strings.Join(parts, sep)
}

// String renders the query in canonical form.
func (q *Query) String() string {
	if q.root == nil {
		return ""
	}
	return q.root.String()
}

// Terms returns the query's positive (non-negated) terms in order of first
// appearance.
func (q *Query) Terms() []string { return q.positive }

// DFKeys names what a DocFreqs vector for the query counts:
// DocFreqs.Terms[i] is the document frequency of terms[i] (the positive
// terms) and DocFreqs.Prefixes[j] that of the scoring prefix operator
// prefixes[j] (given without its '*'). Neither frequency depends on the
// rest of the query, so a broker may keep them per key between queries.
func (q *Query) DFKeys() (terms, prefixes []string) {
	prefixes = make([]string, len(q.scorePrefixes))
	for i, ord := range q.scorePrefixes {
		prefixes[i] = q.prefixes[ord]
	}
	return q.positive, prefixes
}

// Parse builds a Query from text. Grammar (also documented in the README's
// query-syntax reference):
//
//	query  := or
//	or     := and ("OR" and)*
//	and    := unary+            (implicit AND)
//	unary  := "NOT" unary | "(" or ")" | TERM | PREFIX | PHRASE
//	PREFIX := TERM '*'          (trailing wildcard; matches any term with
//	                             that prefix, by dictionary expansion)
//	PHRASE := '"' text '"'      (quoted; matches consecutive positions)
//
// Keywords are case-insensitive; terms — inside and outside quotes — are
// normalized exactly like indexed text (lower-cased ASCII alphanumerics),
// so "Cat!" matches the indexed term "cat". A leading '-' negates a term
// ("-draft" ≡ "NOT draft"). A quoted phrase of one term collapses to that
// term; evaluating a multi-term phrase requires an index built with token
// positions (ErrNoPositions otherwise). A prefix operator's text must
// normalize to a single term ("repor*"); evaluation expands it against
// each partition's term dictionary, failing with ErrPrefixTooBroad past
// the request's expansion cap (Request.MaxPrefixTerms, or the
// MaxPrefixTerms default when unset).
func Parse(text string) (*Query, error) {
	toks, err := lex(text)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	if len(toks) == 0 {
		return nil, fmt.Errorf("search: empty query")
	}
	root, err := p.parseOr()
	if err != nil {
		return nil, err
	}
	if !p.done() {
		return nil, fmt.Errorf("search: unexpected %q", p.peek().text)
	}
	q := &Query{root: root, prefixes: p.prefixes}
	q.collect(root, false)
	return q, nil
}

// collect fills q.positive, q.scorePrefixes and q.hasPhrase in one walk of
// the tree under n, negated when an odd number of NOTs encloses it:
// positive terms and non-negated prefixes keep their first appearance
// only, and a phrase anywhere, negated or not, sets hasPhrase.
func (q *Query) collect(n node, negated bool) {
	addTerm := func(term string) {
		if !negated && !slices.Contains(q.positive, term) {
			q.positive = append(q.positive, term)
		}
	}
	switch v := n.(type) {
	case termNode:
		addTerm(v.term)
	case phraseNode:
		q.hasPhrase = true
		// Every phrase term is contained in every hit, so the terms rank
		// and report like plain positive terms.
		for _, t := range v.terms {
			addTerm(t)
		}
	case prefixNode:
		if !negated && !slices.ContainsFunc(q.scorePrefixes, func(ord int) bool { return q.prefixes[ord] == v.prefix }) {
			q.scorePrefixes = append(q.scorePrefixes, v.ord)
		}
	case andNode:
		for _, k := range v.kids {
			q.collect(k, negated)
		}
	case orNode:
		for _, k := range v.kids {
			q.collect(k, negated)
		}
	case notNode:
		q.collect(v.kid, !negated)
	}
}

// MustParse is Parse for known-good queries in examples and tests.
func MustParse(text string) *Query {
	q, err := Parse(text)
	if err != nil {
		panic(err)
	}
	return q
}

type tokKind int

const (
	tokTerm tokKind = iota
	tokPrefix
	tokPhrase
	tokAnd
	tokOr
	tokNot
	tokLParen
	tokRParen
)

type token struct {
	kind tokKind
	text string
	// terms holds a phrase token's normalized terms (tokPhrase only).
	terms []string
}

func lex(text string) ([]token, error) {
	var toks []token
	i := 0
	for i < len(text) {
		c := text[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			i++
		case c == '(':
			toks = append(toks, token{kind: tokLParen, text: "("})
			i++
		case c == ')':
			toks = append(toks, token{kind: tokRParen, text: ")"})
			i++
		case c == '-':
			toks = append(toks, token{kind: tokNot, text: "-"})
			i++
		case c == '"':
			j := i + 1
			for j < len(text) && text[j] != '"' {
				j++
			}
			if j >= len(text) {
				return nil, fmt.Errorf("search: unterminated phrase (missing closing '\"')")
			}
			// The quoted text normalizes through the scanner extraction
			// runs, so "Annual-Report!" queries the terms annual, report —
			// exactly what was indexed.
			terms := tokenize.Terms([]byte(text[i+1 : j]))
			if len(terms) == 0 {
				return nil, fmt.Errorf("search: phrase %q contains no searchable term", text[i:j+1])
			}
			toks = append(toks, token{kind: tokPhrase, text: text[i : j+1], terms: terms})
			i = j + 1
		default:
			j := i
			for j < len(text) && !strings.ContainsRune(" \t\n\r()\"", rune(text[j])) {
				j++
			}
			word := text[i:j]
			i = j
			switch strings.ToUpper(word) {
			case "AND":
				toks = append(toks, token{kind: tokAnd, text: word})
			case "OR":
				toks = append(toks, token{kind: tokOr, text: word})
			case "NOT":
				toks = append(toks, token{kind: tokNot, text: word})
			default:
				if strings.HasSuffix(word, "*") {
					// A trailing '*' makes the word a prefix operator. The
					// prefix text normalizes through the tokenizer like any
					// term and must stay a single term: expansion matches
					// whole dictionary entries, so a multi-term word
					// ("e-mail*") has no well-defined prefix semantics.
					terms := tokenize.Terms([]byte(strings.TrimRight(word, "*")))
					switch {
					case len(terms) == 0:
						return nil, fmt.Errorf("search: prefix %q contains no searchable term", word)
					case len(terms) > 1:
						return nil, fmt.Errorf("search: prefix %q must be a single term", word)
					}
					toks = append(toks, token{kind: tokPrefix, text: terms[0]})
					continue
				}
				// Normalize through the scanner extraction runs; one word
				// of query text may carry several index terms ("e-mail").
				terms := tokenize.Terms([]byte(word))
				if len(terms) == 0 {
					return nil, fmt.Errorf("search: %q contains no searchable term", word)
				}
				for _, t := range terms {
					toks = append(toks, token{kind: tokTerm, text: t})
				}
			}
		}
	}
	return toks, nil
}

type parser struct {
	toks []token
	pos  int
	// prefixes accumulates each prefix operator's text in parse order;
	// a prefixNode's ord indexes it.
	prefixes []string
}

func (p *parser) done() bool { return p.pos >= len(p.toks) }

func (p *parser) peek() token { return p.toks[p.pos] }

func (p *parser) next() token {
	t := p.toks[p.pos]
	p.pos++
	return t
}

func (p *parser) parseOr() (node, error) {
	first, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	kids := []node{first}
	for !p.done() && p.peek().kind == tokOr {
		p.next()
		n, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		kids = append(kids, n)
	}
	if len(kids) == 1 {
		return first, nil
	}
	return orNode{kids: kids}, nil
}

func (p *parser) parseAnd() (node, error) {
	var kids []node
	for !p.done() {
		switch p.peek().kind {
		case tokOr, tokRParen:
			goto out
		case tokAnd:
			p.next()
			continue
		}
		n, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		kids = append(kids, n)
	}
out:
	switch len(kids) {
	case 0:
		return nil, fmt.Errorf("search: expected a term")
	case 1:
		return kids[0], nil
	default:
		return andNode{kids: kids}, nil
	}
}

func (p *parser) parseUnary() (node, error) {
	if p.done() {
		return nil, fmt.Errorf("search: query ends where a term was expected")
	}
	switch t := p.next(); t.kind {
	case tokNot:
		kid, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return notNode{kid: kid}, nil
	case tokLParen:
		n, err := p.parseOr()
		if err != nil {
			return nil, err
		}
		if p.done() || p.peek().kind != tokRParen {
			return nil, fmt.Errorf("search: missing ')'")
		}
		p.next()
		return n, nil
	case tokTerm:
		return termNode{term: t.text}, nil
	case tokPrefix:
		ord := len(p.prefixes)
		p.prefixes = append(p.prefixes, t.text)
		return prefixNode{prefix: t.text, ord: ord}, nil
	case tokPhrase:
		if len(t.terms) == 1 {
			// A one-word "phrase" is just that word; collapsing it keeps
			// canonical forms (and therefore cache keys) identical.
			return termNode{term: t.terms[0]}, nil
		}
		return phraseNode{terms: t.terms}, nil
	default:
		return nil, fmt.Errorf("search: unexpected %q", t.text)
	}
}
