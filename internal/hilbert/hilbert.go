// Package hilbert implements the Hilbert space-filling curve mapping used to
// order COO edge lists (§4.2 of the VertexSurge paper).
//
// Sorting edges (src, dst) by their position along a Hilbert curve over the
// (src, dst) plane makes consecutive edges touch nearby rows of both the
// source and the destination bit matrices, which is what makes the
// traversal cache-oblivious (the paper's lookahead prefetch builds on the
// same locality).
package hilbert

// The curve is walked as a four-state machine: descending one level either
// keeps the remaining low bits of (x, y) as they are, swaps them, complements
// both, or does both (the two operations commute). State bit 0 is "swapped",
// bit 1 is "complemented".
//
// nibbleStep advances the machine four levels at once. It is indexed by
// state<<8 | xNibble<<4 | yNibble; the low byte of an entry holds the four
// base-4 curve digits those levels contribute, bits 8-9 the state after them.
var nibbleStep [4 << 8]uint16

func init() {
	for i := range nibbleStep {
		state, xn, yn := i>>8, i>>4&15, i&15
		var digits int
		for bit := 3; bit >= 0; bit-- {
			rx, ry := xn>>bit&1, yn>>bit&1
			if state&1 != 0 {
				rx, ry = ry, rx
			}
			if state&2 != 0 {
				rx, ry = rx^1, ry^1
			}
			digits = digits<<2 | ((3 * rx) ^ ry)
			if ry == 0 {
				if rx == 1 {
					state ^= 2
				}
				state ^= 1
			}
		}
		nibbleStep[i] = uint16(state<<8 | digits)
	}
}

// D returns the distance along the Hilbert curve of order `order` (a 2^order
// × 2^order grid) for the cell (x, y). x and y must be < 2^order, and order
// at most 32.
func D(order uint, x, y uint32) uint64 {
	// The table consumes four levels per lookup, so the order is rounded up
	// to whole nibbles. Each padding level sees the bit pair (0, 0), which
	// contributes digit 0 and swaps the axes: an odd pad starts swapped.
	nibbles := (order + 3) / 4
	state := uint((nibbles*4 - order) & 1)
	var d uint64
	for n := nibbles; n > 0; n-- {
		shift := (n - 1) * 4
		e := uint(nibbleStep[state<<8|uint(x>>shift&15)<<4|uint(y>>shift&15)])
		d = d<<8 | uint64(e&0xff)
		state = e >> 8
	}
	return d
}

// XY is the inverse of D: it returns the cell (x, y) at distance d along the
// Hilbert curve of the given order.
func XY(order uint, d uint64) (x, y uint32) {
	t := d
	for s := uint32(1); s < 1<<order; s <<= 1 {
		rx := uint32(1) & uint32(t/2)
		ry := uint32(1) & (uint32(t) ^ rx)
		if ry == 0 {
			if rx == 1 {
				x = s - 1 - x
				y = s - 1 - y
			}
			x, y = y, x
		}
		x += s * rx
		y += s * ry
		t /= 4
	}
	return x, y
}

// OrderFor returns the smallest curve order whose grid covers coordinates in
// [0, n).
func OrderFor(n int) uint {
	order := uint(1)
	for (1 << order) < n {
		order++
	}
	return order
}

// cell is one pair with its curve distance, the unit SortPairs moves.
type cell struct {
	d    uint64
	x, y uint32
}

// radixBits is the digit width of SortPairs' LSD radix sort.
const radixBits = 8

// SortPairs sorts the parallel slices (xs, ys) in place by Hilbert distance
// over a grid large enough to cover both coordinate spaces. It is the edge
// reordering applied to COO edge lists before matrix-kernel expansion. Equal
// pairs keep their relative order.
func SortPairs(xs, ys []uint32) {
	if len(xs) != len(ys) {
		panic("hilbert: coordinate slices of different length")
	}
	if len(xs) == 0 {
		return
	}
	maxC := uint32(0)
	for i := range xs {
		maxC = max(maxC, xs[i], ys[i])
	}
	order := OrderFor(int(maxC) + 1)
	cells := make([]cell, len(xs))
	for i := range xs {
		cells[i] = cell{D(order, xs[i], ys[i]), xs[i], ys[i]}
	}
	// LSD radix sort over the 2*order significant key bits: one counting
	// pass per digit, ping-ponging between two buffers.
	scratch := make([]cell, len(cells))
	for shift := uint(0); shift < 2*order; shift += radixBits {
		var count [1 << radixBits]int
		for i := range cells {
			count[cells[i].d>>shift&(1<<radixBits-1)]++
		}
		pos := 0
		for digit, c := range count {
			count[digit] = pos
			pos += c
		}
		for i := range cells {
			digit := cells[i].d >> shift & (1<<radixBits - 1)
			scratch[count[digit]] = cells[i]
			count[digit]++
		}
		cells, scratch = scratch, cells
	}
	for i, c := range cells {
		xs[i], ys[i] = c.x, c.y
	}
}
