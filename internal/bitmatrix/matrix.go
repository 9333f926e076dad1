// Package bitmatrix implements the bit matrices used by VertexSurge.
//
// The central type is Matrix, a bit matrix stored in the paper's "stacked
// columnar major" format (§4.2): rows are partitioned into stacks of 512, and
// within a dense stack the 512 bits of one column are stored contiguously as
// eight 64-bit words — exactly one cache line. Expanding one edge (k → j)
// for all 512 sources of a stack is then a single column-wide OR, the Go
// equivalent of the paper's VPORD-based or_column; vexpand's kernels run it
// on the dense stacks' words (StackWords).
//
// A stack may instead be sparse: its non-empty columns in ascending order,
// each with its ascending in-stack rows (sparse.go). A Matrix is nothing but
// its stacks, each in its own form, and every method is one loop over the
// stacks; only this package knows which form a stack has.
//
// The package also provides Bitmap, a flat 1-D bit set used for BFS
// frontiers, visited sets, and label membership.
package bitmatrix

import "fmt"

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
// ceil(Rows/512) stacks. In a dense stack, the bits of column c occupy the
// eight consecutive words starting at word index c*8 of that stack's words;
// bit r of a column (0 ≤ r < 512) lives in word r/64 at bit position r%64.
//
// The zero value is an empty 0×0 matrix; use New to create a sized one.
type Matrix struct {
	rows   int
	cols   int
	stacks []stack
}

// New returns an all-zero matrix with the given number of rows and columns.
// Every stack is dense; one zeroed backing holds them all. It panics if
// either dimension is negative.
func New(rows, cols int) *Matrix {
	m := NewSparse(rows, cols)
	span := cols * WordsPerColumn
	words := make([]uint64, len(m.stacks)*span)
	for s := range m.stacks {
		m.stacks[s] = stack{dense: true, words: words[s*span : (s+1)*span : (s+1)*span]}
	}
	return m
}

// Rows returns the number of rows.
func (m *Matrix) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Matrix) Cols() int { return m.cols }

// Stacks returns the number of 512-row stacks.
func (m *Matrix) Stacks() int { return len(m.stacks) }

// SizeBytes returns the memory footprint of the bit storage in bytes: the
// dense stacks' words plus the sparse stacks' column, offset and row arrays.
func (m *Matrix) SizeBytes() int {
	n := 0
	for s := range m.stacks {
		n += m.stacks[s].sizeBytes()
	}
	return n
}

// StackWords returns the dense words of stack s — every column of that
// 512-row band, column c at words c*8..c*8+7 — or nil when s is out of range
// or the stack is sparse. It is the dense matrix kernels' window: they run
// on matrices from New, whose stacks are all dense. It stays out of line:
// inlined into vexpand's cooStep, it raises the register pressure of the
// edge loop there enough to spill three values per edge (expand_miss
// +14%).
//
//go:noinline
func (m *Matrix) StackWords(s int) []uint64 {
	stacks := m.stacks
	if uint(s) >= uint(len(stacks)) {
		return nil
	}
	return stacks[s].words
}

// Set sets bit (r, c) to 1. On a sparse stack it first makes the stack
// dense.
//
//vs:hotpath
func (m *Matrix) Set(r, c int) {
	m.boundsCheck(r, c)
	s, off := r/StackRows, r%StackRows
	// The uint guards restate what boundsCheck already proved in a form
	// the SSA prove pass can consume, eliminating the bounds checks.
	stacks := m.stacks
	if uint(s) >= uint(len(stacks)) {
		return
	}
	st := &stacks[s]
	if !st.dense {
		st.densify(m.cols)
	}
	w := st.words
	if i := c*WordsPerColumn + off/64; uint(i) < uint(len(w)) {
		w[i] |= 1 << uint(off%64)
	}
}

// Get reports whether bit (r, c) is 1.
func (m *Matrix) Get(r, c int) bool {
	m.boundsCheck(r, c)
	s, off := r/StackRows, r%StackRows
	stacks := m.stacks
	if uint(s) >= uint(len(stacks)) {
		return false
	}
	st := &stacks[s]
	if !st.dense {
		return st.get(off, c)
	}
	// Same uint guard as Set: boundsCheck proved it, prove can consume it.
	w := st.words
	i := c*WordsPerColumn + off/64
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

// Or computes m |= other element-wise. The matrices must have identical
// dimensions. A sparse stack of m turns dense.
//
//vs:hotpath
func (m *Matrix) Or(other *Matrix) {
	m.dimCheck(other)
	// Equal dimensions make every pair of slices equal length; restating
	// that as a branch is what lets the prove pass drop the bounds checks
	// (a conditional reslice does not survive the phi merge).
	a, b := m.stacks, other.stacks
	if len(a) != len(b) {
		return
	}
	for s := range a {
		x, y := &a[s], &b[s]
		if !x.dense {
			x.densify(m.cols)
		}
		if !y.dense {
			y.orInto(x.words)
			continue
		}
		xw, yw := x.words, y.words
		if len(xw) != len(yw) {
			return
		}
		for i, w := range yw {
			xw[i] |= w
		}
	}
}

// And computes m &= other element-wise. A sparse stack of m stays sparse,
// its bits filtered.
//
//vs:hotpath
func (m *Matrix) And(other *Matrix) {
	m.dimCheck(other)
	a, b := m.stacks, other.stacks
	if len(a) != len(b) {
		return
	}
	for s := range a {
		x, y := &a[s], &b[s]
		if !x.dense || !y.dense {
			x.and(y, m.cols, false)
			continue
		}
		xw, yw := x.words, y.words
		if len(xw) != len(yw) {
			return
		}
		for i, w := range yw {
			xw[i] &= w
		}
	}
}

// AndNot computes m &^= other element-wise. It is used to exclude visited
// vertices from a freshly expanded frontier (SHORTEST semantics, §4). A
// sparse stack of m stays sparse, its bits filtered.
//
//vs:hotpath
func (m *Matrix) AndNot(other *Matrix) {
	m.dimCheck(other)
	a, b := m.stacks, other.stacks
	if len(a) != len(b) {
		return
	}
	for s := range a {
		x, y := &a[s], &b[s]
		if !x.dense || !y.dense {
			x.and(y, m.cols, true)
			continue
		}
		xw, yw := x.words, y.words
		if len(xw) != len(yw) {
			return
		}
		for i, w := range yw {
			xw[i] &^= w
		}
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
	for s := range m.stacks {
		st := &m.stacks[s]
		if st.dense {
			clear(st.words)
		} else {
			*st = stack{}
		}
	}
}

// Clone returns a deep copy of m, stack forms included.
func (m *Matrix) Clone() *Matrix {
	c := &Matrix{rows: m.rows, cols: m.cols, stacks: make([]stack, len(m.stacks))}
	for s := range m.stacks {
		c.stacks[s] = m.stacks[s].clone()
	}
	return c
}

// CopyFrom overwrites m's bits with other's, stack forms included.
// Dimensions must match.
func (m *Matrix) CopyFrom(other *Matrix) {
	m.dimCheck(other)
	a, b := m.stacks, other.stacks
	if len(a) != len(b) {
		return
	}
	for s := range a {
		if a[s].dense && b[s].dense {
			copy(a[s].words, b[s].words)
		} else {
			a[s] = b[s].clone()
		}
	}
}

// Equal reports whether m and other have the same dimensions and bits,
// whatever the forms of their stacks.
func (m *Matrix) Equal(other *Matrix) bool {
	if m.rows != other.rows || m.cols != other.cols {
		return false
	}
	for s := range m.stacks {
		if !m.stacks[s].equal(&other.stacks[s], m.cols) {
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
	for s := range m.stacks {
		n += m.stacks[s].popCount()
	}
	return n
}

// Any reports whether any bit is set.
func (m *Matrix) Any() bool {
	for s := range m.stacks {
		if m.stacks[s].any() {
			return true
		}
	}
	return false
}

// ForEachSet calls fn for every set bit, in column-major order within each
// stack (ascending stack, then column, then row).
func (m *Matrix) ForEachSet(fn func(row, col int)) {
	for s := range m.stacks {
		m.stacks[s].forEach(s*StackRows, fn)
	}
}

// RowBits returns the set columns of row r as a slice, in ascending order.
// It scans every column of r's stack and is intended for result extraction
// and tests, not inner loops.
func (m *Matrix) RowBits(r int) []int {
	var out []int
	st, off := &m.stacks[r/StackRows], r%StackRows
	if !st.dense {
		for k, c := range st.col {
			if st.hasRow(k, off) {
				out = append(out, int(c))
			}
		}
		return out
	}
	w, mask := off/64, uint64(1)<<uint(off%64)
	for c := 0; c < m.cols; c++ {
		if st.words[c*WordsPerColumn+w]&mask != 0 {
			out = append(out, c)
		}
	}
	return out
}
