//go:build !race

package cypher

import "testing"

// TestDistinctRowAllocs pins that a duplicate row costs only its boxed
// value: the projector keys the seen set from scratch buffers and allocates
// a row and a key only for a new row. (Under -race, sync.Pool drops fmt's
// printers at random, so the count is not stable there.)
func TestDistinctRowAllocs(t *testing.T) {
	if per := allocsPerTuple(t, `MATCH (a:Account)-[:transfer*1..2]->(b:Account) RETURN DISTINCT b`); per > 1.1 {
		t.Errorf("%.3f allocs per tuple, want at most 1.1", per)
	}
}
