package hilbert

import "testing"

// FuzzHilbertRoundTrip asserts the curve mapping is a bijection: for any
// order and any cell inside the order's grid, XY(D(x, y)) must return
// exactly (x, y). Edge lists are reordered by D before matrix-kernel
// expansion, so a collision or drift here silently reorders (or merges)
// edges and corrupts every Hilbert expansion.
func FuzzHilbertRoundTrip(f *testing.F) {
	f.Add(uint(1), uint32(0), uint32(0))
	f.Add(uint(1), uint32(1), uint32(1))
	f.Add(uint(4), uint32(5), uint32(10))
	f.Add(uint(16), uint32(65535), uint32(1))
	f.Add(uint(20), uint32(1<<20-1), uint32(1<<19))
	f.Add(uint(31), uint32(1<<31-1), uint32(1<<31-1))
	f.Fuzz(func(t *testing.T, order uint, x, y uint32) {
		// Clamp to the domain: orders 1..31 (an order-32 grid cannot be
		// iterated with uint32 arithmetic — see XY's loop bound) and
		// coordinates inside the 2^order × 2^order grid.
		order = 1 + order%31
		mask := uint32(1)<<order - 1
		x &= mask
		y &= mask

		d := D(order, x, y)
		if want := refD(order, x, y); d != want {
			t.Fatalf("D(%d, %d, %d) = %d, bit-loop reference %d", order, x, y, d, want)
		}
		if max := uint64(1) << (2 * order); d >= max {
			t.Fatalf("D(%d, %d, %d) = %d, outside curve length %d", order, x, y, d, max)
		}
		gx, gy := XY(order, d)
		if gx != x || gy != y {
			t.Fatalf("round trip failed: order %d (%d,%d) -> d=%d -> (%d,%d)", order, x, y, d, gx, gy)
		}
	})
}
