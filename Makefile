# Local targets mirroring .github/workflows/ci.yml exactly, so `make ci`
# reproduces what CI runs.

GO ?= go

# Pinned staticcheck version, matching .github/workflows/ci.yml.
STATICCHECK_VERSION ?= 2025.1

# govulncheck version, matching .github/workflows/ci.yml.
GOVULNCHECK_VERSION ?= latest

.PHONY: build test vet fmt lint vuln bench bench-selftest docs-check fuzz examples count ci

build:
	$(GO) build ./...

# -shuffle=on matches CI: randomized test order within each package.
test:
	$(GO) test -race -shuffle=on ./...

vet:
	$(GO) vet ./...

fmt:
	@unformatted="$$(gofmt -l .)"; \
	if [ -n "$$unformatted" ]; then \
		echo "files need gofmt:" >&2; \
		echo "$$unformatted" >&2; \
		exit 1; \
	fi

# staticcheck: use the PATH binary when present, otherwise fetch the pinned
# version via `go run` (needs network once). Only tool *availability* is
# probed with -version; real findings always fail the target. Offline
# machines without the binary get a skip, not a failure — CI always has it.
lint:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	elif $(GO) run honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION) -version >/dev/null 2>&1; then \
		$(GO) run honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION) ./...; \
	else \
		echo "lint: staticcheck unavailable (offline, not installed); skipping" >&2; \
	fi

# govulncheck: same availability probe as lint — use the PATH binary when
# present, otherwise fetch via `go run` (needs network once). Real findings
# always fail the target; offline machines without the binary get a skip.
vuln:
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	elif $(GO) run golang.org/x/vuln/cmd/govulncheck@$(GOVULNCHECK_VERSION) -version >/dev/null 2>&1; then \
		$(GO) run golang.org/x/vuln/cmd/govulncheck@$(GOVULNCHECK_VERSION) ./...; \
	else \
		echo "vuln: govulncheck unavailable (offline, not installed); skipping" >&2; \
	fi

# One iteration per benchmark: compile-and-run proof, no measurement.
bench:
	$(GO) test -run='^$$' -bench=. -benchtime=1x ./...

# bench-selftest vets and tests bench/, the repo benchmark's nested module.
# `go build ./...` does not see it, yet it imports internal packages
# directly, so an internal deletion that breaks it must fail here, before
# the benchmark is run.
bench-selftest:
	$(GO) -C bench vet ./...
	$(GO) -C bench test ./...

# The doc-drift gate: every DSIX version and kind constant in
# internal/index/codec.go has a section or heading in docs/FORMAT.md, the
# spec has none the codec lacks, and every version below the live one has
# a row in its retired-versions table; docs/ARCHITECTURE.md's package map
# names every directory under internal/, and none that is gone; every
# cmd/, internal/ or examples/ directory that README.md, doc.go or
# docs/ARCHITECTURE.md names exists; every backticked internal pkg.Name
# they or docs/FORMAT.md cite is declared, and every backticked Type.Member
# of an exported root type (Options.Positions, Hit.Score) names a field or
# method of it or of the internal type it aliases; every directory under
# internal/ is imported by a non-test .go file outside it (bench/ included);
# no exported function or method of package desksearch takes or returns
# a type named through a desksearch/internal/... import (a root alias such
# as Changeset or Hit is a public name); and every backticked -flag in
# README.md, doc.go or docs/ARCHITECTURE.md is defined by a command under
# cmd/ or by bench/main.go.
docs-check:
	$(GO) run ./cmd/docscheck

# Ten seconds of fuzzing on each decoder that reads bytes this process did
# not write — a worker's partial at the broker, query text from /search, a
# manifest's payload and a segment file's header and dictionary at open,
# its posting blocks under a lazy reader (both decode tiers and the
# streaming iterator) and the snippet window pass that reads them in place
# — on an opened segment's dictionary copy and restart index (lookups, document
# frequencies and ascending walks from terms, prefixes and absent probes)
# against a sorted-slice model, on the phrase walk's per-file position
# check against a naive scan (cursor arithmetic at both ends of the uint32
# range), and on the
# positional posting list's operations (inserts, merges, removal,
# demotion, windows, the codec round trip), on the index builder (blocks
# of both kinds in any order), on a batch removal from a built index
# (victims held by no list, past the largest posting, adjacent, every file)
# and on sequences of the dictionary's mutators and a segment round trip
# over terms with colliding FNV-1 hashes (the term table kept through
# each) against map models, on the term scanner (arbitrary bytes, non-ASCII
# included, every hash it emits checked) and the extractor's term blocks
# (terms, counts, position runs, token totals; counted and positional)
# against a naive split-fold-drop reference, and on whole
# requests (a query tree, its text, ranking and page, drawn from the
# fuzzer's bytes over one of eight seeded corpora) against the reference
# every serving shape is held to (oracle_test.go), and on the build itself
# (a thread tuple with x clamped to 1..8 and y to 0..8, 1-5 shards, plain
# or positional, over one of eight seeded corpora) against the sequential
# baseline's saved bytes, and on an update under such a tuple (one churn
# round of adds, modifies and deletes drawn from the fuzzer's bytes)
# against a rebuild of the tree it leaves: long enough to shake out a
# panic, an unbounded allocation or a wrong answer, short enough to run on
# every push.
fuzz:
	$(GO) test -run='^$$' -fuzz=FuzzPartialDecode -fuzztime=10s ./internal/server/
	$(GO) test -run='^$$' -fuzz=FuzzParse -fuzztime=10s ./internal/search/
	$(GO) test -run='^$$' -fuzz=FuzzManifestOpen -fuzztime=10s ./internal/shard/
	$(GO) test -run='^$$' -fuzz=FuzzSegmentOpen -fuzztime=10s ./internal/segment/
	$(GO) test -run='^$$' -fuzz=FuzzBlockDecode -fuzztime=10s ./internal/segment/
	$(GO) test -run='^$$' -fuzz=FuzzWindowDecode -fuzztime=10s ./internal/segment/
	$(GO) test -run='^$$' -fuzz=FuzzSegmentDictionary -fuzztime=10s ./internal/segment/
	$(GO) test -run='^$$' -fuzz=FuzzPhraseWalk -fuzztime=10s ./internal/search/
	$(GO) test -run='^$$' -fuzz=FuzzPositionalList -fuzztime=10s ./internal/postings/
	$(GO) test -run='^$$' -fuzz=FuzzBuild -fuzztime=10s ./internal/index/
	$(GO) test -run='^$$' -fuzz=FuzzRemoveFiles -fuzztime=10s ./internal/index/
	$(GO) test -run='^$$' -fuzz=FuzzDictionary -fuzztime=10s ./internal/index/
	$(GO) test -run='^$$' -fuzz=FuzzScan -fuzztime=10s ./internal/tokenize/
	$(GO) test -run='^$$' -fuzz=FuzzFile -fuzztime=10s ./internal/extract/
	$(GO) test -run='^$$' -fuzz=FuzzQueryOracle -fuzztime=10s .
	$(GO) test -run='^$$' -fuzz=FuzzBuildTuples -fuzztime=10s .
	$(GO) test -run='^$$' -fuzz=FuzzUpdateTuples -fuzztime=10s .

# Runs every program under examples/ and fails on the first non-zero exit.
# Each finishes in seconds; desktopsearch also checks that its sequential
# and parallel builds, and its reloaded index, agree on a query's total.
examples:
	@for d in examples/*; do \
		echo "go run ./$$d"; \
		$(GO) run ./$$d >/dev/null || exit 1; \
	done

# The size figures ROADMAP's State paragraph and every CHANGES entry
# restate: Go lines outside the nested bench/ module split into product and
# test code, package and command counts, and the facade's length.
count:
	@echo "non-test Go lines outside bench/: $$(find . -name '*.go' -not -name '*_test.go' -not -path './bench/*' | xargs cat | wc -l)"
	@echo "test Go lines outside bench/:     $$(find . -name '*_test.go' -not -path './bench/*' | xargs cat | wc -l)"
	@echo "internal packages:                $$(find internal -mindepth 1 -maxdepth 1 -type d | wc -l)"
	@echo "commands:                         $$(find cmd -mindepth 1 -maxdepth 1 -type d | wc -l)"
	@echo "desksearch.go lines:              $$(wc -l < desksearch.go)"

ci: build bench-selftest vet fmt lint vuln docs-check test examples fuzz bench
