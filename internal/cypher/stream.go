package cypher

import (
	"context"
	"errors"

	"repro/internal/engine"
)

// Streamable reports whether q executes with server-side result memory
// constant in the result size: a plain projection of pattern variables (bare
// or property accesses) with no aggregation, ORDER BY, UNWIND,
// shortestPath, or length() expressions, and not an EXPLAIN/PROFILE
// variant. LIMIT is fine — the stream stops early. Every other query runs
// through Stream too, but may hold groups, dedup keys or rows.
func Streamable(q *Query) bool {
	if q.Explain || q.Profile || q.Unwind != nil || len(q.OrderBy) > 0 || projectsLength(q) {
		return false
	}
	for _, p := range q.Parts {
		if p.Shortest {
			return false
		}
	}
	for _, item := range q.Return {
		if item.Agg != "" {
			return false
		}
	}
	return len(q.Return) > 0
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

// Stream executes a query through drive, as RunContext does, with emit as
// its sink: every row goes to emit as drive produces it — in join order, or
// in ORDER BY order once the match ends — and without ORDER BY, LIMIT stops
// the match. Rows are exactly RunContext's rows. A Streamable query whose
// projection covers every pattern vertex with a bare variable keeps no
// result state at all; other shapes hold what drive holds, charged to the
// engine accountant.
//
// Stream runs under the same registry/metrics wrapper as RunContext (see
// registered): it counts into vs_queries_total/failed/in_flight, is visible
// in SHOW QUERIES and /debug/queries with live row counts, killable by id,
// and lands in the history ring on completion with the emitted row count.
// EXPLAIN, EXPLAIN ANALYZE and PROFILE are refused: they answer with a
// plan, an analysis or a span tree, not rows.
//
// emit returning an error stops the stream and surfaces that error; emit
// may block, but must watch the context it receives — that context is the
// registered query context, canceled by KILL, by the caller's deadline, and
// by Stream's own unwinding, so a blocked emit (a cursor handing off a
// batch no client fetches) unblocks the moment the query dies.
func Stream(ctx context.Context, eng *engine.Engine, q *Query, params map[string]any, emit func(ctx context.Context, row []any) error) error {
	if q.Explain || q.Profile {
		return errors.New("cypher: EXPLAIN, EXPLAIN ANALYZE and PROFILE cannot stream: they return a plan, an analysis or a span tree, not rows")
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
