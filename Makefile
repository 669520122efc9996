# Local targets mirroring .github/workflows/ci.yml exactly, so `make ci`
# reproduces what CI runs.

GO ?= go

# Pinned staticcheck version, matching .github/workflows/ci.yml.
STATICCHECK_VERSION ?= 2025.1

# govulncheck version, matching .github/workflows/ci.yml.
GOVULNCHECK_VERSION ?= latest

.PHONY: build test vet fmt lint vuln bench bench-selftest docs-check fuzz count ci

build:
	$(GO) build ./...

# -shuffle=on matches CI: randomized test order within each package.
# -short skips the Table 2-4 sweeps of internal/experiments under the race
# detector only (21 s plain, minutes with -race); the second line runs them
# plain, as the tier-1 `go test ./...` does.
test:
	$(GO) test -race -shuffle=on -short ./...
	$(GO) test ./internal/experiments/

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

# The doc-drift gate: every DSIX version and frame-kind constant in
# internal/index/codec.go has a section or heading in docs/FORMAT.md, and
# the spec has none the codec lacks; docs/ARCHITECTURE.md's package map
# names every directory under internal/, and none that is gone.
docs-check:
	$(GO) run ./cmd/docscheck

# Ten seconds of fuzzing on each decoder that reads bytes this process did
# not write — a worker's partial at the broker, and a segment file's
# posting blocks under a lazy reader (both decode tiers and the streaming
# iterator) — and on the phrase walk's per-file position check against a
# naive scan (cursor arithmetic at both ends of the uint32 range): long
# enough to shake out a panic, an unbounded allocation or a wrong answer,
# short enough to run on every push.
fuzz:
	$(GO) test -run='^$$' -fuzz=FuzzPartialDecode -fuzztime=10s ./internal/server/
	$(GO) test -run='^$$' -fuzz=FuzzBlockDecode -fuzztime=10s ./internal/segment/
	$(GO) test -run='^$$' -fuzz=FuzzPhraseWalk -fuzztime=10s ./internal/search/

# The size figures ROADMAP's State paragraph and every CHANGES entry
# restate: Go lines outside the nested bench/ module split into product and
# test code, package and command counts, and the facade's length.
count:
	@echo "non-test Go lines outside bench/: $$(find . -name '*.go' -not -name '*_test.go' -not -path './bench/*' | xargs cat | wc -l)"
	@echo "test Go lines outside bench/:     $$(find . -name '*_test.go' -not -path './bench/*' | xargs cat | wc -l)"
	@echo "internal packages:                $$(find internal -mindepth 1 -maxdepth 1 -type d | wc -l)"
	@echo "commands:                         $$(find cmd -mindepth 1 -maxdepth 1 -type d | wc -l)"
	@echo "desksearch.go lines:              $$(wc -l < desksearch.go)"

ci: build bench-selftest vet fmt lint vuln docs-check test fuzz bench
