package main

import (
	"fmt"

	"desksearch"
)

// gateOpsPerClass is how many ops of each class the gate compares, and
// gateSnippetOps how many of the BM25 ones it repeats with snippets (few:
// each costs a quarter of a second on the lazy backend).
const (
	gateOpsPerClass = 8
	gateSnippetOps  = 2
)

// gateSample is the fixed sample of ops the correctness gate issues: the
// first gateOpsPerClass ops of every class that a generator seeded
// beside the run's stream yields, the first BM25 ones once more with snippets.
func gateSample(seed int64, vocab []string) []op {
	g := newGenerator(seed^0x6a7e, vocab)
	need := make(map[class]int)
	for _, c := range classes {
		need[c] = gateOpsPerClass
	}
	var sample, snippets []op
	for left := len(classes) * gateOpsPerClass; left > 0; {
		o := g.next()
		if need[o.Class] == 0 {
			continue
		}
		need[o.Class]--
		left--
		sample = append(sample, o)
		if o.Class == classBM25 && len(snippets) < gateSnippetOps {
			o.Snippets = true
			snippets = append(snippets, o)
		}
	}
	return append(sample, snippets...)
}

// gate opens the saved directory all four ways — eager heap, lazy
// segments, one HTTP node, a broker over two workers — and requires the
// same paths, totals and score bits from each for every sampled op.
func (r *run) gate(dir string) error {
	heap, err := desksearch.LoadDir(dir)
	if err != nil {
		return fmt.Errorf("gate: LoadDir: %w", err)
	}
	lazy, err := desksearch.OpenDir(dir)
	if err != nil {
		return fmt.Errorf("gate: OpenDir: %w", err)
	}
	defer lazy.Close()
	node, err := serveNode(heap, nil, 1)
	if err != nil {
		return fmt.Errorf("gate: node: %w", err)
	}
	defer node.close()
	fleet, err := serveFleet(r.ctx, dir, nil, 1)
	if err != nil {
		return fmt.Errorf("gate: fleet: %w", err)
	}
	defer fleet.close()

	others := []struct {
		name string
		t    target
	}{{"lazy", catalogTarget{lazy}}, {"serve-node", node.target}, {"serve-fleet", fleet.target}}
	matched := 0
	for _, o := range gateSample(r.seed, r.data.vocab) {
		want, err := (catalogTarget{heap}).fetch(r.ctx, o)
		if err != nil {
			return fmt.Errorf("gate: heap: %s %q: %w", o.Class, o.Query, err)
		}
		if want.Total > 0 {
			matched++
		}
		for _, b := range others {
			if b.name == "serve-fleet" && (o.Class == classSuggest || o.Snippets) {
				// Two things the fleet is not held to. The broker merges
				// each worker's local top-n suggestions, which it
				// documents as approximate. And a snippet query outlasts
				// the broker's per-attempt timeout (see serveFleet).
				continue
			}
			got, err := b.t.fetch(r.ctx, o)
			if err != nil {
				return fmt.Errorf("gate: %s: %s %q: %w", b.name, o.Class, o.Query, err)
			}
			if !got.equal(want) {
				return fmt.Errorf("gate: %s answers %s %q (snippets %v) differently from heap: total %d vs %d, %d vs %d hits",
					b.name, o.Class, o.Query, o.Snippets, got.Total, want.Total, len(got.Paths), len(want.Paths))
			}
		}
	}
	if matched == 0 {
		return fmt.Errorf("gate: no sampled op matched anything")
	}
	return nil
}
