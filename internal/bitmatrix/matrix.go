// Package bitmatrix implements the bit matrices used by VertexSurge.
//
// The central type is Matrix, a bit matrix stored in the paper's "stacked
// columnar major" format (§4.2): rows are partitioned into stacks of 512, and
// within each stack the 512 bits of one column are stored contiguously as
// eight 64-bit words — exactly one cache line. Expanding one edge (k → j)
// for all 512 sources of a stack is then a single column-wide OR
// (OrColumnFrom), the Go equivalent of the paper's VPORD-based or_column.
//
// A stack may instead be sparse: its non-empty columns in ascending order,
// each with its ascending in-stack rows (sparse.go). Only this package knows
// which form a stack has; every exported method is defined on both.
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

// Matrix is a bit matrix in stacked columnar-major layout.
//
// Conceptually it has Rows × Cols bits. Physically the rows are grouped into
// ceil(Rows/512) stacks. In a dense stack s, the bits of column c occupy the
// eight consecutive words starting at word index c*8 of that stack's words;
// bit r of a column (0 ≤ r < 512) lives in word r/64 at bit position r%64.
// When every stack is dense (New and the matrix kernels), the stacks share
// one backing, stack s starting at word s*Cols*8.
//
// The zero value is an empty 0×0 matrix; use New to create a sized one.
type Matrix struct {
	rows   int
	cols   int
	stacks int
	// words backs every stack in the dense layout while mixed is nil.
	words []uint64
	// mixed, when non-nil, holds each stack on its own (len == stacks),
	// at least one of them sparse or built apart; words is then nil.
	mixed []stack
}

// New returns an all-zero matrix with the given number of rows and columns.
// Every stack is dense. It panics if either dimension is negative.
func New(rows, cols int) *Matrix {
	checkDims(rows, cols)
	stacks := (rows + StackRows - 1) / StackRows
	return &Matrix{
		rows:   rows,
		cols:   cols,
		stacks: stacks,
		words:  make([]uint64, stacks*cols*WordsPerColumn),
	}
}

func checkDims(rows, cols int) {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("bitmatrix: invalid dimensions %d×%d", rows, cols))
	}
}

// Rows returns the number of rows.
func (m *Matrix) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Matrix) Cols() int { return m.cols }

// Stacks returns the number of 512-row stacks.
func (m *Matrix) Stacks() int { return m.stacks }

// SizeBytes returns the memory footprint of the bit storage in bytes: the
// dense stacks' words plus the sparse stacks' column, offset and row arrays.
func (m *Matrix) SizeBytes() int {
	if m.mixed == nil {
		return len(m.words) * 8
	}
	n := 0
	for i := range m.mixed {
		n += m.mixed[i].sizeBytes()
	}
	return n
}

// columnBase returns the word index of the first word of column c in stack
// s of the shared dense backing.
func (m *Matrix) columnBase(stack, c int) int {
	return (stack*m.cols + c) * WordsPerColumn
}

// columnWords returns the eight words of column c within stack s of the
// shared dense backing as a mutable slice view, or nil when (stack, c) is
// out of range or the matrix has its own per-stack forms. The explicit range
// guard (rather than letting the slice expression panic) is what lets the
// compiler's prove pass drop the bounds checks both here and in callers
// that index the fixed-length result — the kernels branch on len() once
// instead of paying a check per word.
func (m *Matrix) columnWords(stack, c int) []uint64 {
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

// StackWords returns the dense words of stack s — every column of that
// 512-row band, column c at words c*8..c*8+7 — or nil when s is out of range
// or the stack is sparse. It is the dense matrix kernels' window: they run
// on matrices from New, whose stacks are all dense.
func (m *Matrix) StackWords(s int) []uint64 {
	if m.mixed != nil {
		if uint(s) >= uint(len(m.mixed)) {
			return nil
		}
		return m.mixed[s].words
	}
	w := m.words
	span := m.cols * WordsPerColumn
	lo := s * span
	hi := lo + span
	if s < 0 || span < 0 || lo < 0 || hi < lo || hi > len(w) || hi > cap(w) {
		return nil
	}
	return w[lo:hi:hi]
}

// stackAt returns stack s as a stack value: a view of the shared backing
// when the matrix is all dense.
func (m *Matrix) stackAt(s int) *stack {
	if m.mixed != nil {
		return &m.mixed[s]
	}
	return &stack{dense: true, words: m.StackWords(s)}
}

// split gives every stack its own entry in mixed, the shared dense backing
// becoming per-stack views of it. Mutators that change a stack's form call
// it first.
//
//vs:coldpath
func (m *Matrix) split() {
	if m.mixed != nil {
		return
	}
	mixed := make([]stack, m.stacks)
	for s := range mixed {
		mixed[s] = stack{dense: true, words: m.StackWords(s)}
	}
	m.mixed, m.words = mixed, nil
}

// densify turns stack s dense in place and returns its words.
//
//vs:coldpath
func (m *Matrix) densify(s int) []uint64 {
	m.split()
	st := &m.mixed[s]
	if !st.dense {
		words := make([]uint64, m.cols*WordsPerColumn)
		st.orInto(words)
		*st = stack{dense: true, words: words}
	}
	return st.words
}

// Set sets bit (r, c) to 1. On a sparse stack it first makes the stack
// dense.
//
//vs:hotpath
func (m *Matrix) Set(r, c int) {
	m.boundsCheck(r, c)
	stack, off := r/StackRows, r%StackRows
	if m.mixed != nil {
		m.setMixed(stack, off, c, true)
		return
	}
	// The uint guard restates what boundsCheck already proved in a form
	// the SSA prove pass can consume, eliminating the bounds check.
	w := m.words
	if i := m.columnBase(stack, c) + off/64; uint(i) < uint(len(w)) {
		w[i] |= 1 << uint(off%64)
	}
}

// Clear sets bit (r, c) to 0. On a sparse stack it first makes the stack
// dense.
func (m *Matrix) Clear(r, c int) {
	m.boundsCheck(r, c)
	stack, off := r/StackRows, r%StackRows
	if m.mixed != nil {
		m.setMixed(stack, off, c, false)
		return
	}
	m.words[m.columnBase(stack, c)+off/64] &^= 1 << uint(off%64)
}

// Get reports whether bit (r, c) is 1.
func (m *Matrix) Get(r, c int) bool {
	m.boundsCheck(r, c)
	stack, off := r/StackRows, r%StackRows
	if m.mixed != nil {
		return m.getMixed(stack, off, c)
	}
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
	if m.mixed != nil || src.mixed != nil {
		m.orColumnFromMixed(src, stack, srcCol, dstCol)
		return
	}
	d := m.columnWords(stack, dstCol)
	s := src.columnWords(stack, srcCol)
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

// orColumnFromMixed is OrColumnFrom when either matrix has a sparse stack:
// the destination stack turns dense.
//
//vs:coldpath
func (m *Matrix) orColumnFromMixed(src *Matrix, stack, srcCol, dstCol int) {
	if uint(stack) >= uint(m.stacks) || uint(stack) >= uint(src.stacks) ||
		uint(srcCol) >= uint(src.cols) || uint(dstCol) >= uint(m.cols) {
		return
	}
	var col [WordsPerColumn]uint64
	src.stackAt(stack).column(col[:], srcCol)
	d := m.densify(stack)[dstCol*WordsPerColumn:]
	for i, w := range col {
		d[i] |= w
	}
}

// Or computes m |= other element-wise. The matrices must have identical
// dimensions.
//
//vs:hotpath
func (m *Matrix) Or(other *Matrix) {
	m.dimCheck(other)
	if m.mixed != nil || other.mixed != nil {
		m.combineMixed(other, opOr)
		return
	}
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
	if m.mixed != nil || other.mixed != nil {
		m.combineMixed(other, opAnd)
		return
	}
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
	if m.mixed != nil || other.mixed != nil {
		m.combineMixed(other, opAndNot)
		return
	}
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
	if m.mixed != nil || other.mixed != nil {
		m.combineMixed(other, opXor)
		return
	}
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

// Reset zeroes every bit, retaining a dense stack's allocation; a sparse
// stack becomes an empty sparse stack.
func (m *Matrix) Reset() {
	if m.mixed == nil {
		clear(m.words)
		return
	}
	for i := range m.mixed {
		st := &m.mixed[i]
		if st.dense {
			clear(st.words)
		} else {
			*st = stack{}
		}
	}
}

// Clone returns a deep copy of m, stack forms included.
func (m *Matrix) Clone() *Matrix {
	c := &Matrix{rows: m.rows, cols: m.cols, stacks: m.stacks}
	if m.mixed == nil {
		c.words = make([]uint64, len(m.words))
		copy(c.words, m.words)
		return c
	}
	c.mixed = make([]stack, len(m.mixed))
	for i := range m.mixed {
		c.mixed[i] = m.mixed[i].clone()
	}
	return c
}

// CopyFrom overwrites m's bits with other's. Dimensions must match.
func (m *Matrix) CopyFrom(other *Matrix) {
	m.dimCheck(other)
	if m.mixed == nil && other.mixed == nil {
		copy(m.words, other.words)
		return
	}
	c := other.Clone()
	m.words, m.mixed = c.words, c.mixed
}

// Equal reports whether m and other have the same dimensions and bits,
// whatever the forms of their stacks.
func (m *Matrix) Equal(other *Matrix) bool {
	if m.rows != other.rows || m.cols != other.cols {
		return false
	}
	if m.mixed == nil && other.mixed == nil {
		for i, w := range m.words {
			if w != other.words[i] {
				return false
			}
		}
		return true
	}
	for s := 0; s < m.stacks; s++ {
		if !m.stackAt(s).equal(other.stackAt(s), m.cols) {
			return false
		}
	}
	return true
}

// PopCount returns the total number of set bits. Ghost rows (padding beyond
// Rows in the final stack) are never set by the exported mutators, so no
// masking is needed.
func (m *Matrix) PopCount() int {
	if m.mixed != nil {
		n := 0
		for i := range m.mixed {
			n += m.mixed[i].popCount()
		}
		return n
	}
	n := 0
	for _, w := range m.words {
		n += bits.OnesCount64(w)
	}
	return n
}

// Any reports whether any bit is set.
func (m *Matrix) Any() bool {
	if m.mixed != nil {
		for i := range m.mixed {
			if m.mixed[i].popCount() > 0 {
				return true
			}
		}
		return false
	}
	for _, w := range m.words {
		if w != 0 {
			return true
		}
	}
	return false
}

// ForEachSet calls fn for every set bit, in column-major order within each
// stack (ascending stack, then column, then row).
func (m *Matrix) ForEachSet(fn func(row, col int)) {
	for s := 0; s < m.stacks; s++ {
		m.stackAt(s).forEach(s*StackRows, fn)
	}
}

// RowBits returns the set columns of row r as a slice, in ascending order.
// It scans every column of r's stack and is intended for result extraction
// and tests, not inner loops.
func (m *Matrix) RowBits(r int) []int {
	var out []int
	stack, off := r/StackRows, r%StackRows
	if m.mixed != nil && !m.mixed[stack].dense {
		st := &m.mixed[stack]
		for k, c := range st.col {
			if st.hasRow(k, off) {
				out = append(out, int(c))
			}
		}
		return out
	}
	win := m.StackWords(stack)
	w, mask := off/64, uint64(1)<<uint(off%64)
	for c := 0; c < m.cols; c++ {
		if win[c*WordsPerColumn+w]&mask != 0 {
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
