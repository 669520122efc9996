// The benchmark is a module of its own so that the repository's build
// (go build ./... at the root) never compiles it and a later change to
// the root module cannot alter it. The desksearch/ import-path prefix is
// what lets it reach desksearch/internal/...
module desksearch/bench

go 1.24

require desksearch v0.0.0

replace desksearch => ../
