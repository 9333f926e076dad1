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

// TestExplainAnalyzeAllocs pins that EXPLAIN ANALYZE of a plain RETURN
// enumerates the match into a sink that keeps no tuple: a run allocates far
// fewer times than the bank graph's pattern has tuples.
func TestExplainAnalyzeAllocs(t *testing.T) {
	e := bankEngine(t)
	q, err := Parse(`EXPLAIN ANALYZE MATCH (a:Account)-[:transfer*1..2]->(b:Account) RETURN a, b`)
	if err != nil {
		t.Fatal(err)
	}
	var tuples int64
	allocs := testing.AllocsPerRun(5, func() {
		res, err := RunContext(context.Background(), e, q, nil)
		if err != nil {
			t.Fatal(err)
		}
		tuples = res.Analysis.Count
	})
	if tuples < 1000 {
		t.Fatalf("%d tuples, too few to measure", tuples)
	}
	t.Logf("%.0f allocations for %d tuples", allocs, tuples)
	if allocs*10 > float64(tuples) {
		t.Errorf("%.0f allocations for %d tuples, want under a tenth as many", allocs, tuples)
	}
}
