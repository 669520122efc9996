package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/url"
	"slices"
	"strconv"
	"sync/atomic"

	"desksearch"
	"desksearch/internal/broker"
	"desksearch/internal/server"
)

// answer is what the correctness gate compares across backends: the
// total, and per hit the path and the exact bits of the score. Suggest
// ops fill Paths with "term:files".
type answer struct {
	Total int
	Paths []string
	Bits  []uint64
}

func (a answer) equal(b answer) bool {
	return a.Total == b.Total && slices.Equal(a.Paths, b.Paths) && slices.Equal(a.Bits, b.Bits)
}

// target is something the op stream can be issued to. do is the timed
// call: it completes the op and reports only whether it failed. fetch
// also returns the answer, for the correctness gate. rec (nil when
// tracing is off) receives spans under parent.
type target interface {
	do(ctx context.Context, o op, rec *recorder, parent, id int) error
	fetch(ctx context.Context, o op) (answer, error)
}

// catalogTarget issues ops straight to a catalog: no server, no network.
type catalogTarget struct{ cat *desksearch.Catalog }

func (o op) query() (desksearch.Query, error) {
	q := desksearch.Query{Text: o.Query, Limit: o.Limit, Snippets: o.Snippets}
	if o.Rank != "" {
		rank, err := desksearch.ParseRanking(o.Rank)
		if err != nil {
			return q, err
		}
		q.Ranking = rank
	}
	return q, nil
}

func (t catalogTarget) do(ctx context.Context, o op, rec *recorder, parent, id int) error {
	if o.Class == classSuggest {
		s := rec.begin("catalog.suggest", parent, id)
		_, err := t.cat.Suggest(ctx, o.Query, o.Limit)
		rec.end(s)
		return err
	}
	q, err := o.query()
	if err != nil {
		return err
	}
	if rec != nil {
		// Parse outside the facade so the parse layer gets its own span;
		// Catalog.Query does the same work itself when given only Text.
		s := rec.begin("search.parse", parent, id)
		q.Expr, err = desksearch.ParseQuery(o.Query)
		rec.end(s)
		if err != nil {
			return err
		}
	}
	s := rec.begin("catalog.query", parent, id)
	_, err = t.cat.Query(ctx, q)
	rec.end(s)
	return err
}

func (t catalogTarget) fetch(ctx context.Context, o op) (answer, error) {
	var a answer
	if o.Class == classSuggest {
		sugs, err := t.cat.Suggest(ctx, o.Query, o.Limit)
		for _, s := range sugs {
			a.Paths = append(a.Paths, s.Term+":"+strconv.Itoa(s.Files))
		}
		a.Total = len(sugs)
		return a, err
	}
	q, err := o.query()
	if err != nil {
		return a, err
	}
	resp, err := t.cat.Query(ctx, q)
	if err != nil {
		return a, err
	}
	a.Total = resp.Total
	for _, h := range resp.Hits {
		a.Paths = append(a.Paths, h.Path)
		a.Bits = append(a.Bits, math.Float64bits(h.Score))
	}
	return a, nil
}

// noopTarget completes every op at once: what is left is the harness.
type noopTarget struct{}

func (noopTarget) do(context.Context, op, *recorder, int, int) error { return nil }
func (noopTarget) fetch(context.Context, op) (answer, error)         { return answer{}, nil }

// spanHeader carries the client's round-trip span ID to the traced
// front-door handler, so the handler span knows its parent.
const spanHeader = "X-Bench-Span"

// httpTarget issues ops to a dsearchd-shaped front door (a node or a
// broker) over keep-alive loopback connections.
type httpTarget struct {
	base   string
	client *http.Client
}

func newHTTPTarget(base string, clients int) *httpTarget {
	return &httpTarget{base: base, client: &http.Client{Transport: &http.Transport{
		MaxIdleConns:        clients,
		MaxIdleConnsPerHost: clients,
	}}}
}

func (t *httpTarget) close() { t.client.CloseIdleConnections() }

func (t *httpTarget) url(o op) string {
	if o.Class == classSuggest {
		return t.base + "/suggest?q=" + url.QueryEscape(o.Query) + "&n=" + strconv.Itoa(o.Limit)
	}
	u := t.base + "/search?q=" + url.QueryEscape(o.Query) + "&limit=" + strconv.Itoa(o.Limit)
	if o.Rank != "" {
		u += "&rank=" + o.Rank
	}
	if o.Snippets {
		u += "&snippets=true"
	}
	return u
}

func (t *httpTarget) get(ctx context.Context, o op, span int) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, t.url(o), nil)
	if err != nil {
		return nil, err
	}
	if span >= 0 {
		req.Header.Set(spanHeader, strconv.Itoa(span))
	}
	return t.client.Do(req)
}

func (t *httpTarget) do(ctx context.Context, o op, rec *recorder, parent, id int) error {
	s := rec.begin("client.roundtrip", parent, id)
	defer rec.end(s)
	resp, err := t.get(ctx, o, s)
	if err != nil {
		return err
	}
	// Drain so the connection is reused; the body is checked by fetch,
	// in the correctness gate, not in the timed path.
	_, err = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return &statusError{op: o, status: resp.StatusCode}
	}
	return nil
}

func (t *httpTarget) fetch(ctx context.Context, o op) (answer, error) {
	var a answer
	resp, err := t.get(ctx, o, -1)
	if err != nil {
		return a, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return a, &statusError{op: o, status: resp.StatusCode}
	}
	if o.Class == classSuggest {
		var sr server.SuggestResponse
		if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
			return a, err
		}
		for _, s := range sr.Suggestions {
			a.Paths = append(a.Paths, s.Term+":"+strconv.Itoa(s.Files))
		}
		a.Total = len(sr.Suggestions)
		return a, nil
	}
	var sr server.SearchResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		return a, err
	}
	a.Total = sr.Total
	for _, h := range sr.Hits {
		a.Paths = append(a.Paths, h.Path)
		// encoding/json writes the shortest decimal that parses back to
		// the same float64, so the bits survive the wire.
		a.Bits = append(a.Bits, math.Float64bits(h.Score))
	}
	return a, nil
}

// getJSON fetches base+path into v.
func getJSON(ctx context.Context, base, path string, v any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+path, nil)
	if err != nil {
		return err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// tracer is the switch the wrapped handlers read: nil while a pass runs
// untraced, the run's recorder during the traced pass. A nil *tracer
// (every -trace 0 run) wraps nothing.
type tracer struct{ rec atomic.Pointer[recorder] }

// wrap returns inner with a span around every request while tracing is
// on. name picks the span name from the request ("" leaves it
// untraced). A request carrying spanHeader is a child of that span; one
// without (a broker's call to a worker) is a child of the open
// front-door span.
func (t *tracer) wrap(inner http.Handler, name func(*http.Request) string) http.Handler {
	if t == nil {
		return inner // an untraced run serves the handlers as they are
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec := t.rec.Load()
		n := ""
		if rec != nil {
			n = name(r)
		}
		if n == "" {
			inner.ServeHTTP(w, r)
			return
		}
		parent := -1
		if h := r.Header.Get(spanHeader); h != "" {
			parent, _ = strconv.Atoi(h) // our own client wrote it
		} else {
			parent = rec.active("broker.handler")
		}
		s := rec.begin(n, parent, -1)
		inner.ServeHTTP(w, r)
		rec.end(s)
	})
}

func frontDoorSpan(name string) func(*http.Request) string {
	return func(r *http.Request) string {
		if r.URL.Path == "/search" || r.URL.Path == "/suggest" {
			return name
		}
		return ""
	}
}

func workerSpan(r *http.Request) string {
	switch r.URL.Path {
	case "/internal/df":
		return "worker.df"
	case "/internal/search":
		return "worker.search"
	case "/suggest":
		return "worker.suggest"
	}
	return ""
}

// listener is one HTTP server on a loopback port of the kernel's choice.
type listener struct {
	url  string
	srv  *http.Server
	done chan struct{}
}

func listen(h http.Handler) (*listener, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	l := &listener{url: "http://" + ln.Addr().String(), srv: &http.Server{Handler: h}, done: make(chan struct{})}
	go func() {
		defer close(l.done)
		l.srv.Serve(ln) // returns ErrServerClosed once close runs
	}()
	return l, nil
}

// close stops the server and waits until its accept loop has returned.
func (l *listener) close() {
	l.srv.Close()
	<-l.done
}

// backend is a booted serving configuration: the target ops go to, what
// to read per-layer counters from, and how to shut it all down.
type backend struct {
	target target
	// snippets, when set, takes the snippet phase in target's place.
	snippets target
	// cat is the catalog behind an in-process or single-node backend.
	cat *desksearch.Catalog
	// url is the HTTP front door ("" for in-process backends) and
	// workers the fleet's worker servers behind it.
	url     string
	workers []string
	closers []func()
}

func (b *backend) close() {
	for i := len(b.closers) - 1; i >= 0; i-- {
		b.closers[i]()
	}
	b.closers = nil
}

// serveNode puts one server.New handler, default result cache, in front
// of cat on loopback.
func serveNode(cat *desksearch.Catalog, tr *tracer, clients int) (*backend, error) {
	h := tr.wrap(server.New(server.Config{Catalog: cat}).Handler(), frontDoorSpan("server.handler"))
	l, err := listen(h)
	if err != nil {
		return nil, err
	}
	t := newHTTPTarget(l.url, clients)
	return &backend{target: t, cat: cat, url: l.url, closers: []func(){l.close, t.close}}, nil
}

// fleetShards is how the four shards are split over the two workers.
var fleetShards = [][]int{{0, 1}, {2, 3}}

// serveFleet opens dir as two lazy shard-subset workers, one replica
// each (so hedging and failover have nothing to do), behind a broker.
//
// Snippet queries cannot go through this broker: it bounds every worker
// call by 8x the p95 of its recent calls, floored at 50 ms, and a snippet
// query walks every posting block of the worker's shards — 30 ms alone,
// past 50 ms when both workers share two cores — so after any fast
// answer they come back 504. snippets is therefore a target on the first
// worker's own front door (README, "Findings").
func serveFleet(ctx context.Context, dir string, tr *tracer, clients int) (*backend, error) {
	b := &backend{}
	fail := func(err error) (*backend, error) {
		b.close()
		return nil, err
	}
	var groups [][]string
	for _, ids := range fleetShards {
		cat, err := desksearch.OpenDirShards(dir, ids)
		if err != nil {
			return fail(fmt.Errorf("opening shards %v: %w", ids, err))
		}
		b.closers = append(b.closers, func() { cat.Close() })
		h := tr.wrap(server.New(server.Config{Catalog: cat, Worker: true}).Handler(), workerSpan)
		l, err := listen(h)
		if err != nil {
			return fail(err)
		}
		b.closers = append(b.closers, l.close)
		groups = append(groups, []string{l.url})
		b.workers = append(b.workers, l.url)
	}
	br, err := broker.New(broker.Config{Groups: groups})
	if err != nil {
		return fail(err)
	}
	if err := br.CheckTopology(ctx); err != nil {
		return fail(fmt.Errorf("fleet topology: %w", err))
	}
	l, err := listen(tr.wrap(br.Handler(), frontDoorSpan("broker.handler")))
	if err != nil {
		return fail(err)
	}
	t := newHTTPTarget(l.url, clients)
	direct := newHTTPTarget(b.workers[0], 1)
	b.closers = append(b.closers, l.close, t.close, direct.close)
	b.target, b.snippets, b.url = t, direct, l.url
	return b, nil
}
