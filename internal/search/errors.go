package search

import "errors"

// QueryErrorCode is the stable, wire-safe name of a query failure class.
// Codes are part of the API: transports map them to statuses and clients
// may switch on them, so existing values never change meaning.
type QueryErrorCode string

const (
	// CodeNoPositions: phrase or snippet request, position-free catalog.
	CodeNoPositions QueryErrorCode = "no_positions"
	// CodePrefixTooBroad: prefix operator over the expansion cap.
	CodePrefixTooBroad QueryErrorCode = "prefix_too_broad"
	// CodeSegmentCorrupt: a posting block failed verification while the
	// query read it. The one code that blames the index, not the request:
	// a replica holding a good copy answers the same query.
	CodeSegmentCorrupt QueryErrorCode = "segment_corrupt"
)

// ErrSegmentCorrupt reports a query that ran over a partition whose
// posting data failed verification mid-evaluation. The answer would have
// been silently incomplete, so there is none. Errors wrapping it name the
// partition and the fault.
var ErrSegmentCorrupt = errors.New("search: posting data failed verification")

// QueryError is a typed, deterministic query rejection: the same request
// against the same catalog state fails the same way — on every replica,
// except for CodeSegmentCorrupt, which is about one replica's files. The
// engine raises it where it detects the condition. Err is the underlying
// sentinel (ErrNoPositions, ErrPrefixTooBroad, ErrSegmentCorrupt, possibly
// wrapped with detail), so errors.Is sees through; Code is the stable name
// transports key status mappings on — internal/server owns the one
// code→HTTP table.
type QueryError struct {
	Code QueryErrorCode
	Err  error
}

func (e *QueryError) Error() string { return e.Err.Error() }

// Unwrap exposes the sentinel to errors.Is/errors.As.
func (e *QueryError) Unwrap() error { return e.Err }

// errNoPositions is ErrNoPositions as evaluation raises it.
var errNoPositions = &QueryError{Code: CodeNoPositions, Err: ErrNoPositions}
