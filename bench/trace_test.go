package main

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

func TestSelfTimeSubtractsChildCoverage(t *testing.T) {
	const u = time.Microsecond
	spans := []span{
		{ID: 0, Parent: -1, Name: "op", Start: 0, End: 100 * u},
		{ID: 1, Parent: 0, Name: "a", Start: 10 * u, End: 40 * u},
		// b overlaps a by 10 us and sticks out of its parent by 20 us.
		{ID: 2, Parent: 0, Name: "b", Start: 30 * u, End: 120 * u},
		{ID: 3, Parent: 1, Name: "leaf", Start: 15 * u, End: 20 * u},
		{ID: 4, Parent: -1, Name: "op", Start: 200 * u, End: 230 * u},
	}
	self := selfTimes(spans)
	want := map[int]time.Duration{
		0: 10 * u, // 100 minus [10,100) covered by a and b together
		1: 25 * u, // 30 minus the leaf's 5
		2: 90 * u,
		3: 5 * u,
		4: 30 * u, // no children: all of it
	}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self time of span %d = %v, want %v", id, self[id], w)
		}
	}

	lt := groupSpans(spans)
	if got := len(lt.total["op"]); got != 2 {
		t.Errorf("grouped %d op spans, want 2", got)
	}
	if got := medianUS(lt.self["op"]); got != 20 {
		t.Errorf("median self time of op = %v us, want 20", got)
	}
	if got := medianUS(lt.total["absent"]); got != 0 {
		t.Errorf("a layer without spans reports %v, want 0", got)
	}
}

func TestRecorderNestsAndNilIsOff(t *testing.T) {
	var off *recorder
	id := off.begin("x", -1, 0)
	off.end(id)
	if id != -1 || off.active("x") != -1 || off.closed() != nil {
		t.Errorf("a nil recorder recorded something")
	}

	r := newRecorder()
	root := r.begin("broker.handler", -1, 7)
	if got := r.active("broker.handler"); got != root {
		t.Errorf("active = %d, want the open span %d", got, root)
	}
	child := r.begin("worker.df", r.active("broker.handler"), -1)
	r.end(child)
	open := r.begin("never.ended", root, 7)
	r.end(root)
	if got := r.active("broker.handler"); got != -1 {
		t.Errorf("active = %d after the span ended, want -1", got)
	}
	spans := r.closed()
	if len(spans) != 2 {
		t.Fatalf("%d closed spans, want 2 (span %d never ended)", len(spans), open)
	}
	for _, s := range spans {
		if s.End < s.Start {
			t.Errorf("span %s ends before it starts", s.Name)
		}
	}
	if spans[1].Parent != root || spans[0].Op != 7 {
		t.Errorf("parent or op id lost: %+v", spans)
	}

	var buf bytes.Buffer
	printLayerTable(&buf, spans)
	for _, name := range []string{"broker.handler", "worker.df", "self_med_us"} {
		if !strings.Contains(buf.String(), name) {
			t.Errorf("layer table lacks %q:\n%s", name, buf.String())
		}
	}
}

func TestDFRounds(t *testing.T) {
	const u = time.Microsecond
	spans := []span{
		{ID: 0, Parent: -1, Name: "broker.handler", Start: 0, End: 100 * u},
		{ID: 1, Parent: 0, Name: "worker.df", Start: 5 * u, End: 20 * u},
		{ID: 2, Parent: 0, Name: "worker.df", Start: 6 * u, End: 30 * u},
		{ID: 3, Parent: 0, Name: "worker.search", Start: 40 * u, End: 90 * u},
		{ID: 4, Parent: -1, Name: "worker.df", Start: 0, End: 9 * u}, // no parent: not a round
	}
	rounds := dfRounds(spans)
	if len(rounds) != 1 || rounds[0] != 25*u {
		t.Errorf("df rounds = %v, want one of 25 us", rounds)
	}
}
