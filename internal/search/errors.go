package search

// QueryErrorCode is the stable, wire-safe name of a query failure class.
// Codes are part of the API: transports map them to statuses and clients
// may switch on them, so existing values never change meaning.
type QueryErrorCode string

const (
	// CodeNoPositions: phrase or snippet request, position-free catalog.
	CodeNoPositions QueryErrorCode = "no_positions"
	// CodePrefixTooBroad: prefix operator over the expansion cap.
	CodePrefixTooBroad QueryErrorCode = "prefix_too_broad"
)

// QueryError is a typed, deterministic query rejection: the same request
// against the same catalog state fails the same way on every replica. The
// engine raises it where it detects the condition. Err is the underlying
// sentinel (ErrNoPositions, ErrPrefixTooBroad, possibly wrapped with
// detail), so errors.Is sees through; Code is the stable name transports
// key status mappings on — internal/server owns the one code→HTTP table.
type QueryError struct {
	Code QueryErrorCode
	Err  error
}

func (e *QueryError) Error() string { return e.Err.Error() }

// Unwrap exposes the sentinel to errors.Is/errors.As.
func (e *QueryError) Unwrap() error { return e.Err }

// errNoPositions is ErrNoPositions as evaluation raises it.
var errNoPositions = &QueryError{Code: CodeNoPositions, Err: ErrNoPositions}
