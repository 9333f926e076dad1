package bitmatrix

import (
	"fmt"
	"math/bits"
	"slices"
)

// stack is one 512-row band of a Matrix, in one of two forms: dense, as
// cols × 8 words, or sparse, as its non-empty columns in ascending order,
// each with its ascending in-stack rows. A sparse stack's column col[k]
// holds the rows row[off[k]:off[k+1]]. The zero value is the empty sparse
// stack, its one form: every producer of an empty sparse stack (Reset,
// StackBuilder.Finish, Decode, And's filter) leaves col, off and row nil.
type stack struct {
	dense bool
	words []uint64
	col   []uint32
	off   []uint32
	row   []uint16
}

// sizeBytes is the stack's storage in bytes.
func (st *stack) sizeBytes() int {
	if st.dense {
		return len(st.words) * 8
	}
	return len(st.col)*4 + len(st.off)*4 + len(st.row)*2
}

// find returns the index of column c among a sparse stack's columns.
func (st *stack) find(c int) (int, bool) {
	if uint(c) > 1<<32-1 {
		return 0, false
	}
	return slices.BinarySearch(st.col, uint32(c))
}

// rowsAt returns the rows of a sparse stack's k-th non-empty column.
func (st *stack) rowsAt(k int) []uint16 {
	return st.row[st.off[k]:st.off[k+1]]
}

// hasRow reports whether a sparse stack's k-th column holds in-stack row r.
func (st *stack) hasRow(k, r int) bool {
	_, ok := slices.BinarySearch(st.rowsAt(k), uint16(r))
	return ok
}

// get reports whether in-stack row r of column c is set. Get calls it
// on a sparse stack only.
//
//vs:coldpath
func (st *stack) get(r, c int) bool {
	if st.dense {
		return st.words[c*WordsPerColumn+r/64]&(1<<uint(r%64)) != 0
	}
	k, ok := st.find(c)
	return ok && st.hasRow(k, r)
}

// columnWords returns the eight words of column c of a dense stack, or nil
// when c is out of range or the stack is sparse (its words are nil). The
// explicit range guard, on one load of the field and on the exact values
// the slice expression uses, drops the bounds checks here and in the column
// kernels, which index the array through a pointer; the cap clause and the
// three-index slice spare the slice its pointer mask.
func (st *stack) columnWords(c int) *[WordsPerColumn]uint64 {
	w := st.words
	base := c * WordsPerColumn
	hi := base + WordsPerColumn
	if base < 0 || hi < base || hi > len(w) || hi > cap(w) {
		return nil
	}
	return (*[WordsPerColumn]uint64)(w[base:hi:hi])
}

// column writes column c of the stack, in either form, into col and
// returns it; a column out of range reads as empty.
//
//vs:coldpath
func (st *stack) column(col *[WordsPerColumn]uint64, c int) *[WordsPerColumn]uint64 {
	if w := st.columnWords(c); w != nil {
		*col = *w
		return col
	}
	*col = [WordsPerColumn]uint64{}
	if k, ok := st.find(c); ok {
		for _, r := range st.rowsAt(k) {
			col[r/64] |= 1 << (r % 64)
		}
	}
	return col
}

// andColumn writes a AND column c of the stack into d, which may be a: the
// AND kernels' code for a sparse stack.
//
//vs:coldpath
func (st *stack) andColumn(d, a *[WordsPerColumn]uint64, c int) {
	var col [WordsPerColumn]uint64
	for i, w := range st.column(&col, c) {
		d[i] = a[i] & w
	}
}

// orInto sets a sparse stack's bits in the dense words of a stack.
//
//vs:coldpath
//go:noinline
func (st *stack) orInto(words []uint64) {
	for k, c := range st.col {
		base := int(c) * WordsPerColumn
		for _, r := range st.rowsAt(k) {
			words[base+int(r/64)] |= 1 << (r % 64)
		}
	}
}

// densify turns a sparse stack of a cols-column matrix dense in place.
// It and orInto stay out of line: inlined, their allocation and checked
// stores would land in the hot kernels that call them on a cold branch.
//
//vs:coldpath
//go:noinline
func (st *stack) densify(cols int) {
	words := make([]uint64, cols*WordsPerColumn)
	st.orInto(words)
	*st = stack{dense: true, words: words}
}

// and applies And of o to st, or AndNot when not is set, for two stacks of
// a cols-column matrix that are not both dense. A sparse st stays sparse,
// its bits filtered.
//
//vs:coldpath
func (st *stack) and(o *stack, cols int, not bool) {
	if !st.dense {
		st.filter(func(r, c int) bool { return o.get(r, c) != not })
		return
	}
	if not {
		o.forEach(0, func(r, c int) {
			st.words[c*WordsPerColumn+r/64] &^= 1 << uint(r%64)
		})
		return
	}
	for c := 0; c < cols; c++ {
		d := st.columnWords(c)
		o.andColumn(d, d, c)
	}
}

// any reports whether the stack has a set bit.
func (st *stack) any() bool {
	if !st.dense {
		return len(st.row) > 0
	}
	for _, w := range st.words {
		if w != 0 {
			return true
		}
	}
	return false
}

// popCount is the number of set bits in the stack.
func (st *stack) popCount() int {
	if !st.dense {
		return len(st.row)
	}
	n := 0
	for _, w := range st.words {
		n += bits.OnesCount64(w)
	}
	return n
}

// forEach calls fn(rowBase+r, c) for every set bit, by column, then row.
func (st *stack) forEach(rowBase int, fn func(row, col int)) {
	if !st.dense {
		for k, c := range st.col {
			for _, r := range st.rowsAt(k) {
				fn(rowBase+int(r), int(c))
			}
		}
		return
	}
	for base := 0; base < len(st.words); base += WordsPerColumn {
		for w := 0; w < WordsPerColumn; w++ {
			word := st.words[base+w]
			for word != 0 {
				fn(rowBase+w*64+bits.TrailingZeros64(word), base/WordsPerColumn)
				word &= word - 1
			}
		}
	}
}

// columnPopCount is the number of set rows of column c in the stack.
func (st *stack) columnPopCount(c int) int {
	if !st.dense {
		if k, ok := st.find(c); ok {
			return int(st.off[k+1] - st.off[k])
		}
		return 0
	}
	n := 0
	for _, w := range st.words[c*WordsPerColumn : (c+1)*WordsPerColumn] {
		n += bits.OnesCount64(w)
	}
	return n
}

// forEachInColumn calls fn(rowBase+r) for every set in-stack row r of
// column c, ascending, until fn returns false; it reports whether fn did.
func (st *stack) forEachInColumn(c, rowBase int, fn func(row int) bool) bool {
	if !st.dense {
		if k, ok := st.find(c); ok {
			return forEachRow(st.rowsAt(k), rowBase, fn)
		}
		return true
	}
	col := st.words[c*WordsPerColumn : (c+1)*WordsPerColumn]
	for w, word := range col {
		for word != 0 {
			if !fn(rowBase + w*64 + bits.TrailingZeros64(word)) {
				return false
			}
			word &= word - 1
		}
	}
	return true
}

// forEachRow calls fn(rowBase+r) for each r of rows until fn returns false.
func forEachRow(rows []uint16, rowBase int, fn func(row int) bool) bool {
	for _, r := range rows {
		if !fn(rowBase + int(r)) {
			return false
		}
	}
	return true
}

// clone returns a deep copy of the stack.
func (st *stack) clone() stack {
	return stack{
		dense: st.dense,
		words: slices.Clone(st.words),
		col:   slices.Clone(st.col),
		off:   slices.Clone(st.off),
		row:   slices.Clone(st.row),
	}
}

// equal reports whether two stacks of a cols-column matrix hold the same
// bits, whatever their forms.
func (st *stack) equal(o *stack, cols int) bool {
	switch {
	case st.dense && o.dense:
		return slices.Equal(st.words, o.words)
	case !st.dense && !o.dense:
		return slices.Equal(st.col, o.col) && slices.Equal(st.off, o.off) && slices.Equal(st.row, o.row)
	}
	var a, b [WordsPerColumn]uint64
	for c := 0; c < cols; c++ {
		if *st.column(&a, c) != *o.column(&b, c) {
			return false
		}
	}
	return true
}

// filter keeps the bits of a sparse stack for which keep(r, c) holds, in
// place; a stack left with no bits becomes the zero value.
func (st *stack) filter(keep func(r, c int) bool) {
	nc, nr := 0, 0
	for k, c := range st.col {
		start := nr
		for _, r := range st.rowsAt(k) {
			if keep(int(r), int(c)) {
				st.row[nr] = r
				nr++
			}
		}
		if nr > start {
			st.col[nc] = c
			st.off[nc] = uint32(start)
			nc++
		}
	}
	if nc == 0 {
		*st = stack{}
		return
	}
	st.col, st.row = st.col[:nc], st.row[:nr]
	st.off = append(st.off[:nc], uint32(nr))
}

// sparseShare bounds a sparse stack: the builder promotes a stack to dense
// once its buffered bits would pass 1/sparseShare of the stack's dense
// bytes (cols × 64), so a stack never holds more than that in sparse form
// and a built matrix is never larger than New's. At 8 bytes per buffered
// bit the bound is one set bit per two columns. BenchmarkStackForms builds
// one 512-row stack over 162,000 columns and runs the seed loop over every
// column (2 vCPU Xeon, medians of 20): the dense form costs 3.4-7.9 ms
// whatever it holds (zeroing 10.4 MB, then 162,000 cache lines); the sparse
// form costs 0.009 ms at 30 bits, 0.8 ms at 10,000, 5.5 ms at 81,000 (the
// bound) and 8.3 ms at 160,000, about one bit per column, where it passes
// the dense form. The bound sits at half that crossover because the seed
// loop is the sparse form's best case: every AND of a sparse column in the
// join pays a binary search where the dense form loads one cache line.
const sparseShare = 16

// NewSparse returns an all-zero rows×cols matrix whose stacks are empty
// and sparse, to be filled stack by stack through BuildStack. It panics if
// either dimension is negative.
func NewSparse(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("bitmatrix: invalid dimensions %d×%d", rows, cols))
	}
	return &Matrix{rows: rows, cols: cols, stacks: make([]stack, (rows+StackRows-1)/StackRows)}
}

// StackBuilder fills one stack of a matrix from NewSparse with per-row
// column lists. It buffers the bits sparse and promotes the stack to dense
// once the buffer would pass 1/sparseShare of the dense bytes. Builders of
// distinct stacks of one matrix may run concurrently; the matrix is usable
// once every builder has finished.
type StackBuilder struct {
	m *Matrix
	s int
	// keys buffers the bits as column<<9 | in-stack row, unsorted and
	// possibly repeated, until the stack is promoted.
	keys []uint64
	// words is the dense stack once promoted.
	words []uint64
	limit int // most keys the buffer may hold
}

// BuildStack returns the builder of stack s of m, a matrix from NewSparse.
func (m *Matrix) BuildStack(s int) *StackBuilder {
	return &StackBuilder{m: m, s: s, limit: m.cols * WordsPerColumn / sparseShare}
}

// AddRow sets bits (r, c) for every c in cols. Row r must lie in the
// builder's stack; cols need not be sorted or distinct.
func (b *StackBuilder) AddRow(r int, cols []uint32) {
	if r < 0 || r >= b.m.rows || r/StackRows != b.s {
		panic(fmt.Sprintf("bitmatrix: AddRow row %d outside stack %d of %d rows", r, b.s, b.m.rows))
	}
	off := uint64(r % StackRows)
	if b.words == nil && len(b.keys)+len(cols) > b.limit {
		b.promote()
	}
	if b.words != nil {
		for _, c := range cols {
			b.words[int(c)*WordsPerColumn+int(off/64)] |= 1 << (off % 64)
		}
		return
	}
	if need := len(b.keys) + len(cols); need > cap(b.keys) {
		// Quadrupling from 1,024 keys (8 KiB) keeps a BFS row's many small
		// hand-overs to a few allocations.
		b.keys = slices.Grow(b.keys, min(max(4*cap(b.keys), need, 1024), b.limit)-len(b.keys))
	}
	for _, c := range cols {
		if int(c) >= b.m.cols {
			b.m.boundsCheck(r, int(c))
		}
		b.keys = append(b.keys, uint64(c)<<9|off)
	}
}

// promote moves the buffered bits into a dense stack.
func (b *StackBuilder) promote() {
	b.words = make([]uint64, b.m.cols*WordsPerColumn)
	for _, k := range b.keys {
		b.words[int(k>>9)*WordsPerColumn+int(k&511/64)] |= 1 << (k & 63)
	}
	b.keys = nil
}

// Bytes returns the bytes the builder holds now: the buffer's capacity, or
// the dense stack once promoted.
func (b *StackBuilder) Bytes() int64 {
	if b.words != nil {
		return int64(len(b.words)) * 8
	}
	return int64(cap(b.keys)) * 8
}

// Finish installs the built stack in the matrix, sorting a sparse buffer
// into its column lists, and returns the stack's bytes.
func (b *StackBuilder) Finish() int {
	st := &b.m.stacks[b.s]
	if b.words != nil {
		*st = stack{dense: true, words: b.words}
		return len(b.words) * 8
	}
	keys := slices.Compact(radixSort(b.keys))
	b.keys = nil
	if len(keys) == 0 {
		*st = stack{}
		return 0
	}
	ncols := 0
	for i, k := range keys {
		if i == 0 || k>>9 != keys[i-1]>>9 {
			ncols++
		}
	}
	// One allocation holds the columns and the offsets.
	colOff := make([]uint32, 2*ncols+1)
	*st = stack{col: colOff[:0:ncols], off: colOff[ncols:ncols:len(colOff)], row: make([]uint16, len(keys))}
	for i, k := range keys {
		if i == 0 || k>>9 != keys[i-1]>>9 {
			st.col = append(st.col, uint32(k>>9))
			st.off = append(st.off, uint32(i))
		}
		st.row[i] = uint16(k & 511)
	}
	st.off = append(st.off, uint32(len(keys)))
	return st.sizeBytes()
}

// radixSort sorts keys by least-significant-digit radix sort, one byte per
// pass and only as many passes as the largest key has bytes, and returns
// the sorted slice (keys itself or a buffer of its length). A comparison
// sort of the builder's keys cost 120 ns per key, most of the sparse
// stack's build.
func radixSort(keys []uint64) []uint64 {
	var most uint64
	for _, k := range keys {
		most |= k
	}
	tmp := make([]uint64, len(keys))
	for shift := uint(0); shift < 64 && most>>shift != 0; shift += 8 {
		var count [257]int
		for _, k := range keys {
			count[k>>shift&255+1]++
		}
		for i := 1; i < len(count); i++ {
			count[i] += count[i-1]
		}
		for _, k := range keys {
			d := k >> shift & 255
			tmp[count[d]] = k
			count[d]++
		}
		keys, tmp = tmp, keys
	}
	return keys
}
