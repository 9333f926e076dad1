package bitmatrix

import "math/bits"

// This file holds the column kernels of MIntersect's Generic Join (Figure
// 5's intersec_col) and its seed enumeration. A column set is a []uint64 of
// Stacks()×8 words, bit r of stack s at word s*8 + r/64 (NewColumn).

// NewColumn returns an empty column set sized for m's columns.
func (m *Matrix) NewColumn() []uint64 {
	return make([]uint64, m.stacks*WordsPerColumn)
}

// ColumnPopCount returns the number of set bits in column c across all
// stacks.
func (m *Matrix) ColumnPopCount(c int) int {
	if m.mixed != nil {
		n := 0
		for s := range m.mixed {
			n += m.mixed[s].columnPopCount(c)
		}
		return n
	}
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
// order, using trailing-zero scanning (the paper's ctz loop) on a dense
// stack.
func (m *Matrix) ForEachInColumn(c int, fn func(row int)) {
	m.forEachInColumn(c, func(row int) bool {
		fn(row)
		return true
	})
}

// forEachInColumn is ForEachInColumn with a stop: it returns false once fn
// has.
func (m *Matrix) forEachInColumn(c int, fn func(row int) bool) bool {
	if m.mixed != nil {
		for s := range m.mixed {
			if !m.mixed[s].forEachInColumn(c, s*StackRows, fn) {
				return false
			}
		}
		return true
	}
	for s := 0; s < m.stacks; s++ {
		base := m.columnBase(s, c)
		rowBase := s * StackRows
		for w := 0; w < WordsPerColumn; w++ {
			word := m.words[base+w]
			for word != 0 {
				if !fn(rowBase + w*64 + bits.TrailingZeros64(word)) {
					return false
				}
				word &= word - 1
			}
		}
	}
	return true
}

// CopyColumn copies column c of m (all stacks) into dst.
//
//vs:hotpath
func (m *Matrix) CopyColumn(dst []uint64, c int) {
	if m.mixed != nil {
		m.columnMixed(dst, nil, c, colCopy)
		return
	}
	for s := 0; s < m.stacks; s++ {
		w := m.columnWords(s, c)
		base := s * WordsPerColumn
		// hi is computed once so the guard compares the exact SSA values
		// the slice expressions use (see columnWords); it never fires.
		hi := base + WordsPerColumn
		if len(w) < WordsPerColumn || base < 0 || hi < base ||
			hi > len(dst) || hi > cap(dst) {
			return
		}
		copy(dst[base:hi], w[:WordsPerColumn])
	}
}

// AndColumn ANDs column c of m into dst, the Go stand-in for the paper's
// SIMD bitwise-AND of matrix columns.
//
//vs:hotpath
func (m *Matrix) AndColumn(dst []uint64, c int) {
	if m.mixed != nil {
		m.columnMixed(dst, nil, c, colAnd)
		return
	}
	for s := 0; s < m.stacks; s++ {
		w := m.columnWords(s, c)
		base := s * WordsPerColumn
		hi := base + WordsPerColumn
		if len(w) < WordsPerColumn || base < 0 || hi < base ||
			hi > len(dst) || hi > cap(dst) {
			return
		}
		d := dst[base:hi:hi]
		d[0] &= w[0]
		d[1] &= w[1]
		d[2] &= w[2]
		d[3] &= w[3]
		d[4] &= w[4]
		d[5] &= w[5]
		d[6] &= w[6]
		d[7] &= w[7]
	}
}

// AndFrom writes src AND column c of m into dst: a held set and a column
// fused into one pass, so the caller copies no invariant column.
//
//vs:hotpath
func (m *Matrix) AndFrom(dst, src []uint64, c int) {
	if m.mixed != nil {
		m.columnMixed(dst, src, c, colAndFrom)
		return
	}
	for s := 0; s < m.stacks; s++ {
		w := m.columnWords(s, c)
		base := s * WordsPerColumn
		hi := base + WordsPerColumn
		if len(w) < WordsPerColumn || base < 0 || hi < base ||
			hi > len(dst) || hi > cap(dst) || hi > len(src) || hi > cap(src) {
			return
		}
		d, a := dst[base:hi:hi], src[base:hi:hi]
		d[0] = a[0] & w[0]
		d[1] = a[1] & w[1]
		d[2] = a[2] & w[2]
		d[3] = a[3] & w[3]
		d[4] = a[4] & w[4]
		d[5] = a[5] & w[5]
		d[6] = a[6] & w[6]
		d[7] = a[7] & w[7]
	}
}

// The column kernels of columnMixed.
const (
	colCopy = iota
	colAnd
	colAndFrom
)

// columnMixed is CopyColumn, AndColumn or AndFrom on a matrix with
// per-stack forms: each stack's column is read whole (a binary search on a
// sparse stack) and applied to its eight words of dst. It allocates
// nothing; it is kept apart from the dense kernels' gate because a sparse
// column's rows are indexed by value.
//
//vs:coldpath
func (m *Matrix) columnMixed(dst, src []uint64, c int, kernel int) {
	if uint(c) >= uint(m.cols) || len(dst) < len(m.mixed)*WordsPerColumn ||
		(kernel == colAndFrom && len(src) < len(dst)) {
		return
	}
	var col [WordsPerColumn]uint64
	for s := range m.mixed {
		m.mixed[s].column(col[:], c)
		d := dst[s*WordsPerColumn : (s+1)*WordsPerColumn]
		switch kernel {
		case colCopy:
			copy(d, col[:])
		case colAnd:
			for i, w := range col {
				d[i] &= w
			}
		case colAndFrom:
			a := src[s*WordsPerColumn : (s+1)*WordsPerColumn]
			for i, w := range col {
				d[i] = a[i] & w
			}
		}
	}
}

// gallopRatio is where the seed merge switches from stepping to galloping:
// when one list is more than this many times longer than the other, the
// longer one is searched exponentially instead of walked (IntersectX's
// skip-merge, arXiv 2012.10848).
const gallopRatio = 32

// seekGE returns the first index i ≥ lo of the ascending list with
// list[i] ≥ target, or len(list): by walking, or by galloping (exponential
// then binary search) when gallop is set.
func seekGE[T ~uint32](list []T, lo int, target uint32, gallop bool) int {
	if !gallop {
		for lo < len(list) && uint32(list[lo]) < target {
			lo++
		}
		return lo
	}
	hi, step := lo, 1
	for hi < len(list) && uint32(list[hi]) < target {
		lo = hi + 1
		hi += step
		step *= 2
	}
	hi = min(hi, len(list))
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if uint32(list[mid]) < target {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// sparseSeeds enumerates the entries of cols that are non-empty columns of
// some stack of an all-sparse matrix, by merging cols with the stacks'
// column lists. next advances to the next such entry; the stacks whose
// cursor then sits on cols[i] hold its rows.
type sparseSeeds[C ~uint32] struct {
	m    *Matrix
	cols []C
	i    int
	// pos[s] is stack s's cursor into its column list.
	pos          []int
	gallopCols   bool
	gallopStacks []bool
}

// newSparseSeeds returns the merge over cols, or nil when m has a dense
// stack: a dense stack may hold a bit in any column.
func newSparseSeeds[C ~uint32](m *Matrix, cols []C) *sparseSeeds[C] {
	if m.mixed == nil {
		return nil
	}
	union := 0
	for s := range m.mixed {
		if m.mixed[s].dense {
			return nil
		}
		union += len(m.mixed[s].col)
	}
	it := &sparseSeeds[C]{m: m, cols: cols, pos: make([]int, len(m.mixed)),
		gallopCols: len(cols) > gallopRatio*union, gallopStacks: make([]bool, len(m.mixed))}
	for s := range m.mixed {
		it.gallopStacks[s] = len(m.mixed[s].col) > gallopRatio*len(cols)
	}
	return it
}

// next moves to the next entry of cols that some stack holds and returns
// its index, or -1 when there is none.
func (it *sparseSeeds[C]) next() int {
	mixed := it.m.mixed
	for it.i < len(it.cols) {
		target := uint32(it.cols[it.i])
		// The smallest non-empty column at or after target.
		u, any := uint32(0), false
		for s := range mixed {
			col := mixed[s].col
			p := seekGE(col, it.pos[s], target, it.gallopStacks[s])
			it.pos[s] = p
			if p < len(col) && (!any || col[p] < u) {
				u, any = col[p], true
			}
		}
		if !any {
			it.i = len(it.cols)
			break
		}
		if u == target {
			i := it.i
			it.i++
			return i
		}
		it.i = seekGE(it.cols, it.i, u, it.gallopCols)
	}
	return -1
}

// onColumn reports whether stack s's cursor sits on column c, and its index.
func (it *sparseSeeds[C]) onColumn(s int, c uint32) (int, bool) {
	st := &it.m.mixed[s]
	p := it.pos[s]
	return p, p < len(st.col) && st.col[p] == c
}

// ForEachSeed is the Generic Join's seed loop over m. For the columns
// cols[i] it visits, in ascending i, it calls seed(i) and then row(r) for
// every set row r of that column, ascending, until either returns false.
// cols must be strictly ascending. A dense stack may hold a bit in any
// column, so a matrix with one visits every entry of cols. When every stack
// is sparse, only the entries that are a non-empty column of some stack are
// visited, found by merging cols with the stacks' column lists and
// galloping through a list more than gallopRatio times longer than the
// other.
func ForEachSeed[C ~uint32](m *Matrix, cols []C, seed func(i int) bool, row func(r int) bool) {
	it := newSparseSeeds(m, cols)
	if it == nil {
		for i, c := range cols {
			if !seed(i) || !m.forEachInColumn(int(c), row) {
				return
			}
		}
		return
	}
	for i := it.next(); i >= 0; i = it.next() {
		if !seed(i) {
			return
		}
		for s := range m.mixed {
			if p, ok := it.onColumn(s, uint32(cols[i])); ok {
				if !forEachRow(m.mixed[s].rowsAt(p), s*StackRows, row) {
					return
				}
			}
		}
	}
}

// SeedCounts calls fn(i, n) with the popcount n of each column cols[i]
// that ForEachSeed would visit, in ascending i, until fn returns false.
func SeedCounts[C ~uint32](m *Matrix, cols []C, fn func(i, n int) bool) {
	it := newSparseSeeds(m, cols)
	if it == nil {
		for i, c := range cols {
			if !fn(i, m.ColumnPopCount(int(c))) {
				return
			}
		}
		return
	}
	for i := it.next(); i >= 0; i = it.next() {
		n := 0
		for s := range m.mixed {
			if p, ok := it.onColumn(s, uint32(cols[i])); ok {
				n += int(m.mixed[s].off[p+1] - m.mixed[s].off[p])
			}
		}
		if !fn(i, n) {
			return
		}
	}
}
