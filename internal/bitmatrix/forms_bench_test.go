package bitmatrix

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// BenchmarkStackForms times what a stack costs the join in each form:
// building one 512-row stack over 162,000 columns (the ledger's Account
// count) with a given number of set bits, then running the seed loop over
// every column. The sparse builder's promotion is switched off, so the
// sparse form is timed past its bound too; the crossover is what sets
// sparseShare.
func BenchmarkStackForms(b *testing.B) {
	const cols = 162000
	seeds := make([]uint32, cols)
	for i := range seeds {
		seeds[i] = uint32(i)
	}
	for _, bitsSet := range []int{30, 10000, 40000, 81000, 160000} {
		rng := rand.New(rand.NewSource(1))
		rowCols := make([][]uint32, StackRows)
		for i := 0; i < bitsSet; i++ {
			r := rng.Intn(StackRows)
			rowCols[r] = append(rowCols[r], uint32(rng.Intn(cols)))
		}
		seedLoop := func(m *Matrix) int {
			n := 0
			ForEachSeed(m, seeds, func(int) bool { return true }, func(int) bool { n++; return true })
			return n
		}
		b.Run(fmt.Sprintf("dense/bits=%d", bitsSet), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				m := New(StackRows, cols)
				for r, cs := range rowCols {
					for _, c := range cs {
						m.Set(r, int(c))
					}
				}
				seedLoop(m)
			}
		})
		b.Run(fmt.Sprintf("sparse/bits=%d", bitsSet), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				m := NewSparse(StackRows, cols)
				sb := m.BuildStack(0)
				sb.limit = math.MaxInt
				for r, cs := range rowCols {
					sb.AddRow(r, cs)
				}
				sb.Finish()
				seedLoop(m)
			}
		})
	}
}
