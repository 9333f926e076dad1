package cypher

import (
	"context"
	"errors"

	"repro/internal/engine"
)

// ErrNotStreamable reports that a query cannot execute row-at-a-time and
// must go through the materializing path (RunContext): aggregation, ORDER
// BY, UNWIND, shortestPath, length() projections, and the EXPLAIN/PROFILE
// variants all need the complete result (or a different execution shape)
// before the first output row exists.
var ErrNotStreamable = errors.New("cypher: query is not streamable")

// Streamable reports whether q can execute row-at-a-time with constant
// server-side result memory: a plain projection of pattern variables (bare
// or property accesses) with no aggregation, ORDER BY, UNWIND,
// shortestPath, or length() expressions, and not an EXPLAIN/PROFILE
// variant. LIMIT is fine — the stream stops early.
func Streamable(q *Query) bool {
	if q.Explain || q.Analyze || q.Profile || q.Unwind != nil || len(q.OrderBy) > 0 {
		return false
	}
	for _, p := range q.Parts {
		if p.Shortest {
			return false
		}
	}
	if len(q.Return) == 0 {
		return false
	}
	for _, item := range q.Return {
		if item.Agg != "" {
			return false
		}
	}
	return !projectsLength(q)
}

// projectsLength reports whether a RETURN item reads length(p).
func projectsLength(q *Query) bool {
	for _, item := range q.Return {
		for _, a := range item.Args {
			if a.IsLength {
				return true
			}
		}
	}
	return false
}

// Columns returns the output column names of q — available before
// execution, so a streaming transport can announce the result shape ahead
// of the first row.
func Columns(q *Query) []string {
	cols := make([]string, len(q.Return))
	for i, item := range q.Return {
		cols[i] = item.Column()
	}
	return cols
}

// Stream executes a streamable query row-at-a-time through drive, as
// RunContext does, with emit as its sink: every projected row is passed to
// emit, in join order, without materializing the result set, and LIMIT
// stops the match. Rows deduplicate exactly as RunContext's do, so when the
// projection covers every pattern vertex with a bare variable no dedup
// state is kept at all and server-side memory is constant in the result
// cardinality.
//
// Stream runs under the same registry/metrics wrapper as RunContext (see
// registered): it counts into vs_queries_total/failed/in_flight, is visible
// in SHOW QUERIES and /debug/queries with live row counts, killable by id,
// and lands in the history ring on completion with the emitted row count.
//
// emit returning an error stops the stream and surfaces that error; emit
// may block, but must watch the context it receives — that context is the
// registered query context, canceled by KILL, by the caller's deadline, and
// by Stream's own unwinding, so a blocked emit (a cursor handing off a
// batch no client fetches) unblocks the moment the query dies.
func Stream(ctx context.Context, eng *engine.Engine, q *Query, params map[string]any, emit func(ctx context.Context, row []any) error) error {
	if !Streamable(q) {
		return ErrNotStreamable
	}
	if err := q.validate(); err != nil {
		return err
	}
	return registered(ctx, q, func(ctx context.Context, rows *int64) error {
		_, err := drive(ctx, eng, q, params, func(row []any) error {
			if err := emit(ctx, row); err != nil {
				return err
			}
			*rows++
			return nil
		})
		return err
	})
}
