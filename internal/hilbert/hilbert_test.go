package hilbert

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// refD is the bit-at-a-time Hilbert mapping D used before it became
// table-driven, kept as the reference the table must reproduce exactly:
// edge lists stored or compared across versions rely on the same order.
func refD(order uint, x, y uint32) uint64 {
	var rx, ry uint32
	var d uint64
	for s := uint32(1) << (order - 1); s > 0; s >>= 1 {
		if x&s > 0 {
			rx = 1
		} else {
			rx = 0
		}
		if y&s > 0 {
			ry = 1
		} else {
			ry = 0
		}
		d += uint64(s) * uint64(s) * uint64((3*rx)^ry)
		if ry == 0 {
			if rx == 1 {
				x = s - 1 - x
				y = s - 1 - y
			}
			x, y = y, x
		}
	}
	return d
}

func TestDMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for order := uint(1); order <= 32; order++ {
		mask := uint32(1)<<order - 1
		if order <= 4 {
			// Small grids exhaustively.
			for x := uint32(0); x <= mask; x++ {
				for y := uint32(0); y <= mask; y++ {
					if got, want := D(order, x, y), refD(order, x, y); got != want {
						t.Fatalf("D(%d, %d, %d) = %d, reference %d", order, x, y, got, want)
					}
				}
			}
		}
		for i := 0; i < 2000; i++ {
			x, y := rng.Uint32()&mask, rng.Uint32()&mask
			if got, want := D(order, x, y), refD(order, x, y); got != want {
				t.Fatalf("D(%d, %d, %d) = %d, reference %d", order, x, y, got, want)
			}
		}
		for _, c := range [][2]uint32{{0, 0}, {mask, 0}, {0, mask}, {mask, mask}} {
			if got, want := D(order, c[0], c[1]), refD(order, c[0], c[1]); got != want {
				t.Fatalf("D(%d, %d, %d) = %d, reference %d", order, c[0], c[1], got, want)
			}
		}
	}
}

// SortPairs must return a permutation of its input in non-decreasing curve
// order at every size around the radix sort's pass and buffer boundaries.
func TestSortPairsSizes(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	sizes := []int{0, 1}
	for k := 1; k <= 13; k++ {
		sizes = append(sizes, 1<<k-1, 1<<k+1)
	}
	type pair struct{ x, y uint32 }
	for _, n := range sizes {
		// Coordinate ranges from a single nibble to several radix digits.
		for _, span := range []int{3, 300, 70000} {
			xs, ys := make([]uint32, n), make([]uint32, n)
			count := map[pair]int{}
			maxC := uint32(0)
			for i := range xs {
				xs[i], ys[i] = uint32(rng.Intn(span)), uint32(rng.Intn(span))
				count[pair{xs[i], ys[i]}]++
				maxC = max(maxC, xs[i], ys[i])
			}
			SortPairs(xs, ys)
			// The grid SortPairs orders on is the smallest covering its input.
			order := OrderFor(int(maxC) + 1)
			for i := range xs {
				count[pair{xs[i], ys[i]}]--
				if i > 0 && refD(order, xs[i-1], ys[i-1]) > refD(order, xs[i], ys[i]) {
					t.Fatalf("n=%d span=%d: not in curve order at %d", n, span, i)
				}
			}
			for p, c := range count {
				if c != 0 {
					t.Fatalf("n=%d span=%d: pair %v count off by %d", n, span, p, c)
				}
			}
		}
	}
}

func TestDOrder1(t *testing.T) {
	// The order-1 curve visits (0,0) → (0,1) → (1,1) → (1,0).
	want := map[[2]uint32]uint64{
		{0, 0}: 0,
		{0, 1}: 1,
		{1, 1}: 2,
		{1, 0}: 3,
	}
	for xy, d := range want {
		if got := D(1, xy[0], xy[1]); got != d {
			t.Errorf("D(1, %d, %d) = %d, want %d", xy[0], xy[1], got, d)
		}
	}
}

func TestDIsBijection(t *testing.T) {
	const order = 4 // 16×16 grid, 256 cells
	seen := make(map[uint64][2]uint32)
	for x := uint32(0); x < 16; x++ {
		for y := uint32(0); y < 16; y++ {
			d := D(order, x, y)
			if d >= 256 {
				t.Fatalf("D(%d,%d) = %d out of range", x, y, d)
			}
			if prev, dup := seen[d]; dup {
				t.Fatalf("D collision: (%d,%d) and (%v) both map to %d", x, y, prev, d)
			}
			seen[d] = [2]uint32{x, y}
		}
	}
	if len(seen) != 256 {
		t.Fatalf("covered %d distances, want 256", len(seen))
	}
}

func TestXYRoundTrip(t *testing.T) {
	const order = 5
	for d := uint64(0); d < 1<<(2*order); d++ {
		x, y := XY(order, d)
		if got := D(order, x, y); got != d {
			t.Fatalf("D(XY(%d)) = %d", d, got)
		}
	}
}

// Property: consecutive curve positions are grid neighbours (the locality
// property that makes the ordering worth using).
func TestAdjacencyOfConsecutiveCells(t *testing.T) {
	const order = 6
	px, py := XY(order, 0)
	for d := uint64(1); d < 1<<(2*order); d++ {
		x, y := XY(order, d)
		dx, dy := int(x)-int(px), int(y)-int(py)
		if dx*dx+dy*dy != 1 {
			t.Fatalf("cells at d=%d and d=%d are not adjacent: (%d,%d) vs (%d,%d)",
				d-1, d, px, py, x, y)
		}
		px, py = x, y
	}
}

func TestOrderFor(t *testing.T) {
	cases := []struct {
		n    int
		want uint
	}{{1, 1}, {2, 1}, {3, 2}, {4, 2}, {5, 3}, {1024, 10}, {1025, 11}}
	for _, c := range cases {
		if got := OrderFor(c.n); got != c.want {
			t.Errorf("OrderFor(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}

func TestSortPairsPreservesMultiset(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	n := 500
	xs := make([]uint32, n)
	ys := make([]uint32, n)
	type pair struct{ x, y uint32 }
	count := map[pair]int{}
	for i := range xs {
		xs[i] = uint32(rng.Intn(300))
		ys[i] = uint32(rng.Intn(300))
		count[pair{xs[i], ys[i]}]++
	}
	SortPairs(xs, ys)
	for i := range xs {
		count[pair{xs[i], ys[i]}]--
	}
	for p, c := range count {
		if c != 0 {
			t.Fatalf("pair %v count off by %d after sort", p, c)
		}
	}
	// And the result must actually be in curve order.
	order := OrderFor(300)
	for i := 1; i < n; i++ {
		if D(order, xs[i-1], ys[i-1]) > D(order, xs[i], ys[i]) {
			t.Fatalf("pairs not in Hilbert order at %d", i)
		}
	}
}

func TestSortPairsEmptyAndMismatch(t *testing.T) {
	SortPairs(nil, nil) // must not panic
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched lengths did not panic")
		}
	}()
	SortPairs([]uint32{1}, []uint32{})
}

// Property: round trip holds for random distances at random orders.
func TestQuickRoundTrip(t *testing.T) {
	f := func(rawOrder uint8, rawD uint32) bool {
		order := uint(rawOrder%10) + 1
		d := uint64(rawD) % (1 << (2 * order))
		x, y := XY(order, d)
		return D(order, x, y) == d && x < 1<<order && y < 1<<order
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: Hilbert locality beats row-major locality on average for random
// samples (sanity check that the ordering does what we bought it for).
func TestLocalityBeatsRowMajor(t *testing.T) {
	const order = 8
	n := 1 << (2 * order)
	step := 97
	var hilbertDist, rowMajorDist float64
	side := 1 << order
	for d := 0; d+step < n; d += step {
		x1, y1 := XY(order, uint64(d))
		x2, y2 := XY(order, uint64(d+step))
		hilbertDist += abs(int(x1)-int(x2)) + abs(int(y1)-int(y2))
		rx1, ry1 := d/side, d%side
		r2 := d + step
		rx2, ry2 := r2/side, r2%side
		rowMajorDist += abs(rx1-rx2) + abs(ry1-ry2)
	}
	if hilbertDist >= rowMajorDist {
		t.Errorf("hilbert locality %f not better than row-major %f", hilbertDist, rowMajorDist)
	}
}

func abs(x int) float64 {
	if x < 0 {
		return float64(-x)
	}
	return float64(x)
}

func TestSortPairsIsDeterministic(t *testing.T) {
	xs1 := []uint32{5, 5, 1, 1, 3}
	ys1 := []uint32{2, 2, 4, 4, 3}
	xs2 := append([]uint32(nil), xs1...)
	ys2 := append([]uint32(nil), ys1...)
	SortPairs(xs1, ys1)
	SortPairs(xs2, ys2)
	if !equalU32(xs1, xs2) || !equalU32(ys1, ys2) {
		t.Fatal("SortPairs not deterministic")
	}
	o := OrderFor(6)
	for i := 1; i < len(xs1); i++ {
		if D(o, xs1[i-1], ys1[i-1]) > D(o, xs1[i], ys1[i]) {
			t.Fatal("not sorted by Hilbert key")
		}
	}
}

func equalU32(a, b []uint32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
