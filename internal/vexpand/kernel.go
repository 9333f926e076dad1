package vexpand

import (
	"math/bits"

	"repro/internal/bitmatrix"
	"repro/internal/graph"
)

// Kernel selects the expand kernel implementation. The non-Auto values form
// the ablation ladder of Figure 9: each adds one optimization of §4 on top
// of the previous.
type Kernel int

const (
	// Auto picks, per invocation, BFS when frontiers stay sparse and the
	// Hilbert matrix kernel otherwise (§3: kernels "suited for different
	// scenarios"; see chooseKernel).
	Auto Kernel = iota
	// Strawman is the §4.1 baseline: a row-major bit matrix updated with
	// per-bit set_bit (explicit word/bit address computation) while
	// iterating CSR adjacency per source row.
	Strawman
	// ColumnMajor stores the matrix in stacked columnar-major format and
	// uses or_column over insertion-ordered COO edges, with a plain
	// 8-word loop (no unrolling).
	ColumnMajor
	// SIMD is ColumnMajor with the 8-word OR fully unrolled on slice
	// views — the Go stand-in for one AVX-512 VPORD (see DESIGN.md).
	SIMD
	// Hilbert is SIMD over the Hilbert-ordered COO edge list (§4.2), the
	// last rung of the Figure 9 ladder. The paper's prefetch rung has no
	// Go stand-in: a discarded load of the lookahead column is dead code to
	// the compiler (EXPERIMENTS.md, Figure 9).
	Hilbert
	// BFS expands each source independently over CSR adjacency, its
	// frontier a vertex list; preferable when frontiers stay sparse.
	BFS
)

// String names the kernel.
func (k Kernel) String() string {
	switch k {
	case Auto:
		return "auto"
	case Strawman:
		return "strawman"
	case ColumnMajor:
		return "column-major"
	case SIMD:
		return "simd"
	case Hilbert:
		return "hilbert"
	case BFS:
		return "bfs"
	default:
		return "unknown"
	}
}

// rowMatrix is the straw-man's flat row-major bit matrix: bit (r, c) lives
// in words[r*wordsPerRow + c/64]. Adjacent destination bits of one source
// row are spread across the whole row — the layout whose write
// amplification §4.2 diagnoses.
type rowMatrix struct {
	rows, cols  int
	wordsPerRow int
	words       []uint64
}

func newRowMatrix(rows, cols int) *rowMatrix {
	wpr := (cols + 63) / 64
	return &rowMatrix{rows: rows, cols: cols, wordsPerRow: wpr, words: make([]uint64, rows*wpr)}
}

// setBit is the paper's set_bit: full division/modulo address computation
// plus a read-modify-write of one word.
//
//vs:hotpath
func (m *rowMatrix) setBit(r, c int) {
	// uint guard so the prove pass drops the bounds check; callers always
	// pass in-range coordinates, so the branch is never taken.
	w := m.words
	if i := r*m.wordsPerRow + c/64; uint(i) < uint(len(w)) {
		w[i] |= 1 << uint(c%64)
	}
}

func (m *rowMatrix) get(r, c int) bool {
	return m.words[r*m.wordsPerRow+c/64]&(1<<uint(c%64)) != 0
}

func (m *rowMatrix) reset() { clear(m.words) }

// row returns the words of row r, or nil when r is out of range. The
// explicit guard keeps the slice expression check-free when this is
// inlined into the hotpath kernels.
func (m *rowMatrix) row(r int) []uint64 {
	// Single field load + overflow-safe bound so the prove pass can drop
	// the slice check when this is inlined into the kernels.
	w := m.words
	wpr := m.wordsPerRow
	base := r * wpr
	hi := base + wpr
	if wpr <= 0 || base < 0 || hi < base || hi > len(w) || hi > cap(w) {
		return nil
	}
	return w[base:hi]
}

// toStacked converts to the stacked columnar format for shared
// result handling.
func (m *rowMatrix) toStacked() *bitmatrix.Matrix {
	out := bitmatrix.New(m.rows, m.cols)
	for r := 0; r < m.rows; r++ {
		row := m.row(r)
		for wi, word := range row {
			for word != 0 {
				tz := trailingZeros(word)
				c := wi*64 + tz
				out.Set(r, c)
				word &= word - 1
			}
		}
	}
	return out
}

func (m *rowMatrix) fromStacked(src *bitmatrix.Matrix) {
	m.reset()
	src.ForEachSet(func(r, c int) { m.setBit(r, c) })
}

// strawmanStep performs one expand step on row-major matrices: for every
// source row i and every reachable vertex k, iterate k's adjacency and
// set_bit each destination (Figure 4b).
//
//vs:hotpath
func strawmanStep(cur, next *rowMatrix, sets []*graph.EdgeSet, dir graph.Direction) {
	for r := 0; r < cur.rows; r++ {
		row := cur.row(r)
		for wi, word := range row {
			for word != 0 {
				tz := trailingZeros(word)
				k := graph.VertexID(wi*64 + tz)
				word &= word - 1
				for _, es := range sets {
					for _, j := range es.Neighbors(k, dir) {
						next.setBit(r, int(j))
					}
				}
			}
		}
	}
}

// column returns the eight words of column c inside a stack window
// (Matrix.StackWords), or nil when c lies outside it. The explicit guard is
// what lets the prove pass drop the bounds checks here and on the constant
// indices the callers apply after one len test.
func column(win []uint64, c uint32) []uint64 {
	lo := int(c) * bitmatrix.WordsPerColumn
	hi := lo + bitmatrix.WordsPerColumn
	if lo < 0 || hi < lo || hi > len(win) || hi > cap(win) {
		return nil
	}
	return win[lo:hi:hi]
}

// cooStep performs one expand step of the stacked-columnar kernel over a
// COO edge list: for every stack and every edge (k → j), OR column k of cur
// into column j of next (Figure 4c) — the or_column primitive of §4.2, one
// cache line per operand. The unrolled flag selects the "SIMD" 8-word
// unrolled OR (the stand-in for one VPORD).
//
//vs:hotpath
func cooStep(cur, next *bitmatrix.Matrix, from, to []uint32, stackLo, stackHi int, unrolled bool) {
	// The COO arrays are always built parallel; restating the equality as
	// a branch makes every from[x]/to[x] below provably in range.
	if len(from) != len(to) {
		return
	}
	for s := stackLo; s < stackHi; s++ {
		cw, nw := cur.StackWords(s), next.StackWords(s)
		for x := range from {
			src, dst := column(cw, from[x]), column(nw, to[x])
			if len(src) < bitmatrix.WordsPerColumn || len(dst) < bitmatrix.WordsPerColumn {
				continue // out-of-range column: caller bug, but keep the kernel branch-only
			}
			if !unrolled {
				// The ColumnMajor rung: a plain loop over the column.
				for i, w := range src[:bitmatrix.WordsPerColumn] {
					dst[i] |= w
				}
				continue
			}
			dst[0] |= src[0]
			dst[1] |= src[1]
			dst[2] |= src[2]
			dst[3] |= src[3]
			dst[4] |= src[4]
			dst[5] |= src[5]
			dst[6] |= src[6]
			dst[7] |= src[7]
		}
	}
}

// trailingZeros is the paper's ctz; math/bits compiles it to TZCNT on amd64.
func trailingZeros(w uint64) int { return bits.TrailingZeros64(w) }
