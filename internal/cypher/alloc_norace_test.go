//go:build !race

package cypher

import (
	"context"
	"testing"
)

// TestDistinctRowAllocs pins that a duplicate row costs only its boxed
// value: the projector keys the seen set from scratch buffers and allocates
// a row and a key only for a new row. (Under -race, sync.Pool drops fmt's
// printers at random, so the count is not stable there.)
func TestDistinctRowAllocs(t *testing.T) {
	if per := allocsPerTuple(t, `MATCH (a:Account)-[:transfer*1..2]->(b:Account) RETURN DISTINCT b`); per > 1.1 {
		t.Errorf("%.3f allocs per tuple, want at most 1.1", per)
	}
}

// TestExplainAnalyzeAllocs pins that EXPLAIN ANALYZE is the query's own run
// with its rows dropped: it returns no rows, and it allocates within 256 of
// the same query streamed into a sink that keeps nothing. The margin covers
// the trace, the plan bound for the join and the operator table.
func TestExplainAnalyzeAllocs(t *testing.T) {
	e := bankEngine(t)
	const src = `MATCH (a:Account)-[:transfer*1..2]->(b:Account) RETURN a, b`
	analyze, err := Parse("EXPLAIN ANALYZE " + src)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	var res *Result
	analyzed := testing.AllocsPerRun(5, func() {
		if res, err = RunContext(context.Background(), e, analyze, nil); err != nil {
			t.Fatal(err)
		}
	})
	streamed := testing.AllocsPerRun(5, func() {
		if err := Stream(context.Background(), e, plain, nil, func(context.Context, []any) error { return nil }); err != nil {
			t.Fatal(err)
		}
	})
	if len(res.Rows) != 0 {
		t.Errorf("EXPLAIN ANALYZE returned %d rows, want none", len(res.Rows))
	}
	tuples := res.Analysis.Count
	if tuples < 1000 {
		t.Fatalf("%d tuples, too few to measure", tuples)
	}
	t.Logf("EXPLAIN ANALYZE %.0f allocations, streamed %.0f, for %d tuples", analyzed, streamed, tuples)
	if analyzed > streamed+256 {
		t.Errorf("EXPLAIN ANALYZE %.0f allocations, want within 256 of the streamed run's %.0f", analyzed, streamed)
	}
}
