package broker

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"desksearch/internal/server"
)

// WorkerMetaView aliases the worker's /internal/meta response shape; the
// broker consumes exactly what the server package serves.
type WorkerMetaView = server.WorkerMeta

// httpDoer is the slice of *http.Client the broker uses; tests substitute
// their own.
type httpDoer interface {
	Do(*http.Request) (*http.Response, error)
}

// maxIdleConnsPerWorker is how many idle keep-alive connections the broker
// holds to each worker. Every front-door request in flight uses one per
// group; http.DefaultTransport keeps two per host, so a third concurrent
// request dialled anew on every call.
const maxIdleConnsPerWorker = 64

// newHTTPClient returns the broker's own transport, shared with nothing
// else in the process. No client-level timeout: every request carries a
// context deadline, and a fixed client timeout would fight the per-attempt
// budgets.
func newHTTPClient() httpDoer {
	t := http.DefaultTransport.(*http.Transport).Clone()
	t.MaxIdleConns = 0 // the per-worker bound is the one that matters
	t.MaxIdleConnsPerHost = maxIdleConnsPerWorker
	return &http.Client{Transport: t}
}

// WorkerError is a deterministic worker rejection (HTTP 4xx) surfaced
// through the broker: the query itself is at fault — unparseable text,
// unknown ranking, over-broad prefix — so no replica retry can help, and
// the status propagates to the client as-is.
type WorkerError struct {
	Status  int
	Message string
	// Code is the worker's machine-readable error code ("prefix_too_broad",
	// "no_positions", ...), forwarded verbatim so clients behind the broker
	// can branch on it exactly as they would against a single node.
	Code string
}

func (e *WorkerError) Error() string {
	return fmt.Sprintf("worker rejected request (HTTP %d): %s", e.Status, e.Message)
}

// do issues one HTTP request and buffers the response in a pooled buffer,
// which the caller hands back with server.PutBuffer once it holds no slice
// of it.
func (b *Broker) do(ctx context.Context, method, url string, body []byte) (status int, respBody *bytes.Buffer, err error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/octet-stream")
	}
	resp, err := b.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	buf := server.GetBuffer()
	if _, err := buf.ReadFrom(io.LimitReader(resp.Body, server.MaxBodyBytes)); err != nil {
		server.PutBuffer(buf)
		return 0, nil, err
	}
	return resp.StatusCode, buf, nil
}

// decodeErrorBody extracts the server's {"error": ..., "code": ...}
// message and optional machine-readable code, falling back to the raw
// body.
func decodeErrorBody(body []byte) (msg, code string) {
	var e struct {
		Error string `json:"error"`
		Code  string `json:"code"`
	}
	if json.Unmarshal(body, &e) == nil && e.Error != "" {
		return e.Error, e.Code
	}
	s := string(body)
	if len(s) > 200 {
		s = s[:200]
	}
	return s, ""
}

// fetchMeta retrieves one worker's /internal/meta.
func (b *Broker) fetchMeta(ctx context.Context, base string) (WorkerMetaView, error) {
	var m WorkerMetaView
	status, body, err := b.do(ctx, http.MethodGet, base+"/internal/meta", nil)
	if err != nil {
		return m, err
	}
	defer server.PutBuffer(body)
	if status != http.StatusOK {
		msg, _ := decodeErrorBody(body.Bytes())
		return m, fmt.Errorf("HTTP %d: %s", status, msg)
	}
	if err := json.Unmarshal(body.Bytes(), &m); err != nil {
		return m, fmt.Errorf("malformed meta: %w", err)
	}
	return m, nil
}

// probeHealth reports whether a worker's /healthz answers 200.
func (b *Broker) probeHealth(ctx context.Context, base string) bool {
	status, body, err := b.do(ctx, http.MethodGet, base+"/healthz", nil)
	if err != nil {
		return false
	}
	server.PutBuffer(body)
	return status == http.StatusOK
}

// attempt is one finished request to one replica of a group.
type attempt struct {
	idx    int  // the replica's place in the group's candidate order
	hedge  bool // started by the hedge timer, not as the primary or a failover
	status int
	body   *bytes.Buffer
	err    error
	took   time.Duration
}

// call sends one attempt to r under ctx and tells the worker, through
// timeout=, the budget ctx leaves it.
func (b *Broker) call(ctx context.Context, r *replica, method, path string, body []byte) attempt {
	url := r.url + path
	if deadline, ok := ctx.Deadline(); ok {
		sep := "?"
		if strings.Contains(path, "?") {
			sep = "&"
		}
		// Nanoseconds keep the value ASCII (time.Duration prints µ); an
		// already-spent budget still has to parse as positive.
		left := max(time.Until(deadline), time.Nanosecond)
		url += sep + "timeout=" + strconv.FormatInt(left.Nanoseconds(), 10) + "ns"
	}
	start := time.Now()
	status, respBody, err := b.do(ctx, method, url, body)
	return attempt{status: status, body: respBody, err: err, took: time.Since(start)}
}

// settle classifies a finished attempt against replica r, for the lone
// and the racing path alike, and releases its body. A 200 feeds the
// group's latency window, counts a hedge win when a hedged attempt beat
// the primary, and is decoded; a 4xx is the request's fault and becomes a
// WorkerError. Either ends the group's request (done), with err nil only
// for a body that decoded. Anything else — a 5xx or a connection error —
// is a retryable failure, returned as err with done false; a connection
// error also delists r until the health loop clears it. A timeout is just
// slowness and a cancellation is the caller's doing: neither says the
// replica is down.
func (b *Broker) settle(g *group, r *replica, a attempt, decode func([]byte) error) (done bool, err error) {
	if a.err != nil {
		if !errors.Is(a.err, context.DeadlineExceeded) && !errors.Is(a.err, context.Canceled) {
			r.healthy.Store(false)
		}
		return false, fmt.Errorf("%s: %w", r.url, a.err)
	}
	defer server.PutBuffer(a.body)
	switch {
	case a.status == http.StatusOK:
		g.window.Observe(a.took)
		if a.hedge {
			b.hedgeWins.Add(1)
		}
		if err := decode(a.body.Bytes()); err != nil {
			return true, fmt.Errorf("broker: %s: malformed response: %w", r.url, err)
		}
		return true, nil
	case a.status >= 400 && a.status < 500:
		msg, code := decodeErrorBody(a.body.Bytes())
		return true, &WorkerError{Status: a.status, Message: msg, Code: code}
	default:
		msg, _ := decodeErrorBody(a.body.Bytes())
		return false, fmt.Errorf("%s: HTTP %d: %s", r.url, a.status, msg)
	}
}

// doGroup runs one request against a replica group with rotation,
// failover, and hedging, and hands the winning 200 response's body to
// decode, which must keep no slice of it.
//
// A group of one replica has nothing to race: its attempt runs on the
// calling goroutine, under the caller's context, and settles there.
//
// Otherwise the primary attempt goes to the group's next healthy replica.
// Two things bring the next replica into play: a retryable failure
// (connection error, per-attempt timeout, 5xx) starts it immediately —
// the failover path — and the hedge timer starts it speculatively while
// the primary is merely slow. Whichever outstanding attempt answers 200
// first wins; the rest are cancelled by the shared context when the
// caller's request completes. A 4xx stops everything at once: it is the
// request that is broken, not the replica.
//
// Every attempt but the last is bounded by the group's attempt timeout, so
// a hung replica leaves time to fail over. The last candidate — a lone
// replica's only one — has nobody to fail over to: cutting it short could
// only turn a slow answer into an error, so it runs to the request's own
// deadline. Either way the worker is told the attempt's remaining budget
// (timeout=), and stops evaluating when the broker has stopped listening.
func (b *Broker) doGroup(ctx context.Context, g *group, method, path string, body []byte, decode func([]byte) error) error {
	cands := g.candidates()
	if len(cands) == 1 {
		done, err := b.settle(g, cands[0], b.call(ctx, cands[0], method, path, body), decode)
		switch {
		case done:
			return err
		case ctx.Err() != nil:
			return ctx.Err()
		default:
			return fmt.Errorf("broker: all 1 replica(s) failed, last: %w", err)
		}
	}

	gctx, gcancel := context.WithCancel(ctx)
	defer gcancel()
	results := make(chan attempt, len(cands))
	hedgeAfter, attemptTO := b.policy(g.window.Snapshot())
	launch := func(i int, hedge bool) {
		go func() {
			actx := gctx
			if i < len(cands)-1 {
				var acancel context.CancelFunc
				actx, acancel = context.WithTimeout(gctx, attemptTO)
				defer acancel()
			}
			a := b.call(actx, cands[i], method, path, body)
			a.idx, a.hedge = i, hedge
			results <- a
		}()
	}
	launch(0, false)
	inflight, next := 1, 1

	hedge := time.NewTimer(hedgeAfter)
	defer hedge.Stop()

	for {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-hedge.C:
			if next < len(cands) {
				b.hedges.Add(1)
				launch(next, true)
				next++
				inflight++
			}
		case a := <-results:
			inflight--
			done, err := b.settle(g, cands[a.idx], a, decode)
			if done {
				return err
			}
			if next < len(cands) {
				b.failovers.Add(1)
				b.logf("broker: failing over from %v", err)
				launch(next, false)
				next++
				inflight++
			} else if inflight == 0 {
				return fmt.Errorf("broker: all %d replica(s) failed, last: %w", len(cands), err)
			}
		}
	}
}
