// Package bitmatrix implements the dense bit matrices used by VertexSurge.
//
// The central type is Matrix, a bit matrix stored in the paper's "stacked
// columnar major" format (§4.2): rows are partitioned into stacks of 512, and
// within each stack the 512 bits of one column are stored contiguously as
// eight 64-bit words — exactly one cache line. Expanding one edge (k → j)
// for all 512 sources of a stack is then a single column-wide OR
// (OrColumnFrom), the Go equivalent of the paper's VPORD-based or_column.
//
// The package also provides Bitmap, a flat 1-D bit set used for BFS
// frontiers, visited sets, and label membership.
package bitmatrix

import (
	"fmt"
	"math/bits"
	"strings"
)

const (
	// StackRows is the number of rows per stack. The paper packs 512 rows
	// so that one column of one stack is a 64-byte cache line.
	StackRows = 512
	// WordsPerColumn is the number of 64-bit words holding one column of
	// one stack.
	WordsPerColumn = StackRows / 64
)

// Matrix is a dense bit matrix in stacked columnar-major layout.
//
// Conceptually it has Rows × Cols bits. Physically the rows are grouped into
// ceil(Rows/512) stacks; within stack s, the bits of column c occupy the
// eight consecutive words starting at word index (s*Cols+c)*8. Bit r of a
// column (0 ≤ r < 512) lives in word r/64 at bit position r%64.
//
// The zero value is an empty 0×0 matrix; use New to create a sized one.
type Matrix struct {
	rows   int
	cols   int
	stacks int
	words  []uint64
}

// New returns an all-zero matrix with the given number of rows and columns.
// It panics if either dimension is negative.
func New(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("bitmatrix: invalid dimensions %d×%d", rows, cols))
	}
	stacks := (rows + StackRows - 1) / StackRows
	return &Matrix{
		rows:   rows,
		cols:   cols,
		stacks: stacks,
		words:  make([]uint64, stacks*cols*WordsPerColumn),
	}
}

// Rows returns the number of rows.
func (m *Matrix) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Matrix) Cols() int { return m.cols }

// Stacks returns the number of 512-row stacks.
func (m *Matrix) Stacks() int { return m.stacks }

// SizeBytes returns the memory footprint of the bit storage in bytes.
func (m *Matrix) SizeBytes() int { return len(m.words) * 8 }

// Words exposes the raw backing words. It is intended for kernels and
// serialization; the layout is documented on Matrix.
func (m *Matrix) Words() []uint64 { return m.words }

// columnBase returns the word index of the first word of column c in stack s.
func (m *Matrix) columnBase(stack, c int) int {
	return (stack*m.cols + c) * WordsPerColumn
}

// ColumnWords returns the eight words of column c within stack s as a
// mutable slice view, or nil when (stack, c) is out of range. The
// explicit range guard (rather than letting the slice expression panic)
// is what lets the compiler's prove pass drop the bounds checks both here
// and in callers that index the fixed-length result — the kernels branch
// on len() once instead of paying a check per word.
func (m *Matrix) ColumnWords(stack, c int) []uint64 {
	// Single load of the field: prove cannot connect a guard on
	// len(m.words) to a later reload of m.words, a local can. The
	// `base > len(w)-WordsPerColumn` form is overflow-safe, which the
	// additive form is not — prove rejects guards that could wrap.
	w := m.words
	base := m.columnBase(stack, c)
	// hi is computed once so the guard compares the exact SSA values the
	// slice expression uses; the cap clause looks redundant (words is made
	// with len == cap) but the expression is checked against cap, and for
	// a heap-loaded slice header prove has no len <= cap fact to lean on.
	hi := base + WordsPerColumn
	if base < 0 || hi < base || hi > len(w) || hi > cap(w) {
		return nil
	}
	return w[base:hi:hi]
}

// Set sets bit (r, c) to 1.
//
//vs:hotpath
func (m *Matrix) Set(r, c int) {
	m.boundsCheck(r, c)
	stack, off := r/StackRows, r%StackRows
	// The uint guard restates what boundsCheck already proved in a form
	// the SSA prove pass can consume, eliminating the bounds check.
	w := m.words
	if i := m.columnBase(stack, c) + off/64; uint(i) < uint(len(w)) {
		w[i] |= 1 << uint(off%64)
	}
}

// Clear sets bit (r, c) to 0.
func (m *Matrix) Clear(r, c int) {
	m.boundsCheck(r, c)
	stack, off := r/StackRows, r%StackRows
	m.words[m.columnBase(stack, c)+off/64] &^= 1 << uint(off%64)
}

// Get reports whether bit (r, c) is 1.
func (m *Matrix) Get(r, c int) bool {
	m.boundsCheck(r, c)
	stack, off := r/StackRows, r%StackRows
	// Same uint guard as Set: boundsCheck proved it, prove can consume it.
	w := m.words
	i := m.columnBase(stack, c) + off/64
	return uint(i) < uint(len(w)) && w[i]&(1<<uint(off%64)) != 0
}

// boundsCheck panics on an out-of-range bit. It allocates only to format
// the panic message, so it is the hot kernels' declared slow path.
//
//vs:coldpath
func (m *Matrix) boundsCheck(r, c int) {
	if r < 0 || r >= m.rows || c < 0 || c >= m.cols {
		panic(fmt.Sprintf("bitmatrix: index (%d,%d) out of range %d×%d", r, c, m.rows, m.cols))
	}
}

// OrColumnFrom ORs column srcCol of src (within the given stack) into column
// dstCol of m. Both matrices must have the same number of stacks. This is
// the or_column primitive of §4.2: one call replaces up to 512 set_bit
// operations.
//
//vs:hotpath
func (m *Matrix) OrColumnFrom(src *Matrix, stack, srcCol, dstCol int) {
	d := m.ColumnWords(stack, dstCol)
	s := src.ColumnWords(stack, srcCol)
	if len(d) < WordsPerColumn || len(s) < WordsPerColumn {
		return // out-of-range column: caller bug, but keep the kernel branch-only
	}
	// Eight explicit word ORs: the stand-in for a single VPORD on AVX-512.
	// After the len guard the constant indices are provably in range.
	d[0] |= s[0]
	d[1] |= s[1]
	d[2] |= s[2]
	d[3] |= s[3]
	d[4] |= s[4]
	d[5] |= s[5]
	d[6] |= s[6]
	d[7] |= s[7]
}

// Or computes m |= other element-wise. The matrices must have identical
// dimensions.
//
//vs:hotpath
func (m *Matrix) Or(other *Matrix) {
	m.dimCheck(other)
	// dimCheck makes the slices equal length; restating that as a branch
	// is what lets the prove pass drop the per-word bounds check (a
	// conditional reslice does not survive the phi merge).
	a, b := m.words, other.words
	if len(a) != len(b) {
		return
	}
	for i, w := range b {
		a[i] |= w
	}
}

// And computes m &= other element-wise.
//
//vs:hotpath
func (m *Matrix) And(other *Matrix) {
	m.dimCheck(other)
	a, b := m.words, other.words
	if len(a) != len(b) {
		return
	}
	for i, w := range b {
		a[i] &= w
	}
}

// AndNot computes m &^= other element-wise. It is used to exclude visited
// vertices from a freshly expanded frontier (SHORTEST semantics, §4).
//
//vs:hotpath
func (m *Matrix) AndNot(other *Matrix) {
	m.dimCheck(other)
	a, b := m.words, other.words
	if len(a) != len(b) {
		return
	}
	for i, w := range b {
		a[i] &^= w
	}
}

// Xor computes m ^= other element-wise (the paper's VPXORD use case).
//
//vs:hotpath
func (m *Matrix) Xor(other *Matrix) {
	m.dimCheck(other)
	a, b := m.words, other.words
	if len(a) != len(b) {
		return
	}
	for i, w := range b {
		a[i] ^= w
	}
}

// dimCheck panics on mismatched dimensions; like boundsCheck it allocates
// only to format the panic message.
//
//vs:coldpath
func (m *Matrix) dimCheck(other *Matrix) {
	if m.rows != other.rows || m.cols != other.cols {
		panic(fmt.Sprintf("bitmatrix: dimension mismatch %d×%d vs %d×%d",
			m.rows, m.cols, other.rows, other.cols))
	}
}

// Reset zeroes every bit, retaining the allocation.
func (m *Matrix) Reset() {
	clear(m.words)
}

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	c := &Matrix{rows: m.rows, cols: m.cols, stacks: m.stacks, words: make([]uint64, len(m.words))}
	copy(c.words, m.words)
	return c
}

// CopyFrom overwrites m's bits with other's. Dimensions must match.
func (m *Matrix) CopyFrom(other *Matrix) {
	m.dimCheck(other)
	copy(m.words, other.words)
}

// Equal reports whether m and other have the same dimensions and bits.
func (m *Matrix) Equal(other *Matrix) bool {
	if m.rows != other.rows || m.cols != other.cols {
		return false
	}
	for i, w := range m.words {
		if w != other.words[i] {
			return false
		}
	}
	return true
}

// PopCount returns the total number of set bits. Ghost rows (padding beyond
// Rows in the final stack) are never set by the exported mutators, so no
// masking is needed.
func (m *Matrix) PopCount() int {
	n := 0
	for _, w := range m.words {
		n += bits.OnesCount64(w)
	}
	return n
}

// Any reports whether any bit is set.
func (m *Matrix) Any() bool {
	for _, w := range m.words {
		if w != 0 {
			return true
		}
	}
	return false
}

// ColumnPopCount returns the number of set bits in column c across all
// stacks.
func (m *Matrix) ColumnPopCount(c int) int {
	n := 0
	for s := 0; s < m.stacks; s++ {
		base := m.columnBase(s, c)
		for w := 0; w < WordsPerColumn; w++ {
			n += bits.OnesCount64(m.words[base+w])
		}
	}
	return n
}

// ForEachInColumn calls fn for every set row of column c, in increasing row
// order, using trailing-zero scanning (the paper's ctz loop).
func (m *Matrix) ForEachInColumn(c int, fn func(row int)) {
	for s := 0; s < m.stacks; s++ {
		base := m.columnBase(s, c)
		rowBase := s * StackRows
		for w := 0; w < WordsPerColumn; w++ {
			word := m.words[base+w]
			for word != 0 {
				tz := bits.TrailingZeros64(word)
				fn(rowBase + w*64 + tz)
				word &= word - 1
			}
		}
	}
}

// ForEachSet calls fn for every set bit, in column-major order within each
// stack (ascending stack, then column, then row).
func (m *Matrix) ForEachSet(fn func(row, col int)) {
	for s := 0; s < m.stacks; s++ {
		rowBase := s * StackRows
		for c := 0; c < m.cols; c++ {
			base := m.columnBase(s, c)
			for w := 0; w < WordsPerColumn; w++ {
				word := m.words[base+w]
				for word != 0 {
					tz := bits.TrailingZeros64(word)
					fn(rowBase+w*64+tz, c)
					word &= word - 1
				}
			}
		}
	}
}

// RowBits returns the set columns of row r as a slice, in ascending order.
// It scans every column and is intended for result extraction and tests,
// not inner loops.
func (m *Matrix) RowBits(r int) []int {
	var out []int
	stack, off := r/StackRows, r%StackRows
	w, mask := off/64, uint64(1)<<uint(off%64)
	for c := 0; c < m.cols; c++ {
		if m.words[m.columnBase(stack, c)+w]&mask != 0 {
			out = append(out, c)
		}
	}
	return out
}

// String renders the matrix as rows of 0/1 characters. Intended only for
// debugging small matrices.
func (m *Matrix) String() string {
	var b strings.Builder
	for r := 0; r < m.rows; r++ {
		for c := 0; c < m.cols; c++ {
			if m.Get(r, c) {
				b.WriteByte('1')
			} else {
				b.WriteByte('0')
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}
