package bitmatrix

// This file holds the column kernels of MIntersect's Generic Join (Figure
// 5's intersec_col) and its seed enumeration. A column set is a []uint64 of
// Stacks()×8 words, bit r of stack s at word s*8 + r/64 (NewColumn).

// NewColumn returns an empty column set sized for m's columns.
func (m *Matrix) NewColumn() []uint64 {
	return make([]uint64, len(m.stacks)*WordsPerColumn)
}

// ColumnPopCount returns the number of set bits in column c across all
// stacks.
func (m *Matrix) ColumnPopCount(c int) int {
	n := 0
	for s := range m.stacks {
		n += m.stacks[s].columnPopCount(c)
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
	for s := range m.stacks {
		if !m.stacks[s].forEachInColumn(c, s*StackRows, fn) {
			return false
		}
	}
	return true
}

// The column kernels below take, per stack, the eight words of dst (and
// src) and of column c. On a dense stack they apply eight constant-index
// word operations through array pointers, which carry no bounds check; a
// sparse stack goes to its own (cold) code. The guard on dst has
// stack.columnWords's shape and never fires on a set from NewColumn; an
// out-of-range column stops the kernel.

// CopyColumn copies column c of m (all stacks) into dst.
//
//vs:hotpath
func (m *Matrix) CopyColumn(dst []uint64, c int) {
	stacks := m.stacks
	for s := range stacks {
		base := s * WordsPerColumn
		hi := base + WordsPerColumn
		if base < 0 || hi < base || hi > len(dst) || hi > cap(dst) {
			return
		}
		d := (*[WordsPerColumn]uint64)(dst[base:hi:hi])
		w := stacks[s].columnWords(c)
		if w == nil {
			if !stacks[s].dense {
				stacks[s].column(d, c)
				continue
			}
			return
		}
		*d = *w
	}
}

// AndColumn ANDs column c of m into dst, the Go stand-in for the paper's
// SIMD bitwise-AND of matrix columns.
//
//vs:hotpath
func (m *Matrix) AndColumn(dst []uint64, c int) {
	stacks := m.stacks
	for s := range stacks {
		base := s * WordsPerColumn
		hi := base + WordsPerColumn
		if base < 0 || hi < base || hi > len(dst) || hi > cap(dst) {
			return
		}
		d := (*[WordsPerColumn]uint64)(dst[base:hi:hi])
		w := stacks[s].columnWords(c)
		if w == nil {
			if !stacks[s].dense {
				stacks[s].andColumn(d, d, c)
				continue
			}
			return
		}
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
	stacks := m.stacks
	for s := range stacks {
		base := s * WordsPerColumn
		hi := base + WordsPerColumn
		if base < 0 || hi < base || hi > len(dst) || hi > cap(dst) || hi > len(src) || hi > cap(src) {
			return
		}
		d, a := (*[WordsPerColumn]uint64)(dst[base:hi:hi]), (*[WordsPerColumn]uint64)(src[base:hi:hi])
		w := stacks[s].columnWords(c)
		if w == nil {
			if !stacks[s].dense {
				stacks[s].andColumn(d, a, c)
				continue
			}
			return
		}
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
	union := 0
	for s := range m.stacks {
		if m.stacks[s].dense {
			return nil
		}
		union += len(m.stacks[s].col)
	}
	it := &sparseSeeds[C]{m: m, cols: cols, pos: make([]int, len(m.stacks)),
		gallopCols: len(cols) > gallopRatio*union, gallopStacks: make([]bool, len(m.stacks))}
	for s := range m.stacks {
		it.gallopStacks[s] = len(m.stacks[s].col) > gallopRatio*len(cols)
	}
	return it
}

// next moves to the next entry of cols that some stack holds and returns
// its index, or -1 when there is none.
func (it *sparseSeeds[C]) next() int {
	stacks := it.m.stacks
	for it.i < len(it.cols) {
		target := uint32(it.cols[it.i])
		// The smallest non-empty column at or after target.
		u, any := uint32(0), false
		for s := range stacks {
			col := stacks[s].col
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
	st := &it.m.stacks[s]
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
		for s := range m.stacks {
			if p, ok := it.onColumn(s, uint32(cols[i])); ok {
				if !forEachRow(m.stacks[s].rowsAt(p), s*StackRows, row) {
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
		for s := range m.stacks {
			if p, ok := it.onColumn(s, uint32(cols[i])); ok {
				n += int(m.stacks[s].off[p+1] - m.stacks[s].off[p])
			}
		}
		if !fn(i, n) {
			return
		}
	}
}
