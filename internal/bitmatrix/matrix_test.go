package bitmatrix

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestNewDimensions(t *testing.T) {
	cases := []struct {
		rows, cols, stacks int
	}{
		{0, 0, 0},
		{1, 1, 1},
		{511, 3, 1},
		{512, 3, 1},
		{513, 3, 2},
		{1024, 7, 2},
		{1500, 10, 3},
	}
	for _, c := range cases {
		m := New(c.rows, c.cols)
		if m.Rows() != c.rows || m.Cols() != c.cols || m.Stacks() != c.stacks {
			t.Errorf("New(%d,%d): got %d×%d stacks=%d, want stacks=%d",
				c.rows, c.cols, m.Rows(), m.Cols(), m.Stacks(), c.stacks)
		}
		if want := c.stacks * c.cols * WordsPerColumn * 8; m.SizeBytes() != want {
			t.Errorf("SizeBytes = %d, want %d", m.SizeBytes(), want)
		}
	}
}

func TestNewPanicsOnNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(-1, 2) did not panic")
		}
	}()
	New(-1, 2)
}

func TestSetGetClear(t *testing.T) {
	m := New(1030, 17)
	coords := [][2]int{{0, 0}, {511, 16}, {512, 0}, {1029, 16}, {63, 5}, {64, 5}, {700, 9}}
	for _, rc := range coords {
		if m.Get(rc[0], rc[1]) {
			t.Fatalf("fresh matrix has bit (%d,%d) set", rc[0], rc[1])
		}
		m.Set(rc[0], rc[1])
		if !m.Get(rc[0], rc[1]) {
			t.Fatalf("Set(%d,%d) not observed", rc[0], rc[1])
		}
	}
	if got := m.PopCount(); got != len(coords) {
		t.Fatalf("PopCount = %d, want %d", got, len(coords))
	}
	m.Reset()
	for _, rc := range coords {
		if m.Get(rc[0], rc[1]) {
			t.Fatalf("Reset left bit (%d,%d) set", rc[0], rc[1])
		}
	}
	if m.Any() {
		t.Fatal("matrix not empty after Reset")
	}
}

func TestBoundsPanic(t *testing.T) {
	m := New(10, 10)
	for _, rc := range [][2]int{{-1, 0}, {0, -1}, {10, 0}, {0, 10}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Get(%d,%d) did not panic", rc[0], rc[1])
				}
			}()
			m.Get(rc[0], rc[1])
		}()
	}
}

// columnBits returns the set rows of column c in ascending order.
func columnBits(m *Matrix, c int) []int {
	var out []int
	m.ForEachInColumn(c, func(row int) { out = append(out, row) })
	return out
}

// randomMatrix fills m with each bit set with probability p.
func randomMatrix(rng *rand.Rand, rows, cols int, p float64) *Matrix {
	m := New(rows, cols)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if rng.Float64() < p {
				m.Set(r, c)
			}
		}
	}
	return m
}

func TestElementwiseOpsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const rows, cols = 600, 13
	a := randomMatrix(rng, rows, cols, 0.3)
	b := randomMatrix(rng, rows, cols, 0.3)

	type op struct {
		name  string
		apply func(x, y *Matrix)
		ref   func(x, y bool) bool
	}
	ops := []op{
		{"Or", func(x, y *Matrix) { x.Or(y) }, func(x, y bool) bool { return x || y }},
		{"And", func(x, y *Matrix) { x.And(y) }, func(x, y bool) bool { return x && y }},
		{"AndNot", func(x, y *Matrix) { x.AndNot(y) }, func(x, y bool) bool { return x && !y }},
	}
	for _, o := range ops {
		got := a.Clone()
		o.apply(got, b)
		for r := 0; r < rows; r++ {
			for c := 0; c < cols; c++ {
				want := o.ref(a.Get(r, c), b.Get(r, c))
				if got.Get(r, c) != want {
					t.Fatalf("%s mismatch at (%d,%d): got %v, want %v", o.name, r, c, got.Get(r, c), want)
				}
			}
		}
	}
}

func TestElementwiseDimMismatchPanics(t *testing.T) {
	a := New(10, 10)
	b := New(10, 11)
	defer func() {
		if recover() == nil {
			t.Fatal("Or with mismatched dims did not panic")
		}
	}()
	a.Or(b)
}

func TestCloneAndCopyFromAndEqual(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	a := randomMatrix(rng, 520, 9, 0.25)
	c := a.Clone()
	if !a.Equal(c) {
		t.Fatal("clone not equal to original")
	}
	r := 519
	for a.Get(r, 8) {
		r--
	}
	c.Set(r, 8)
	if a.Equal(c) {
		t.Fatal("mutating clone affected equality unexpectedly")
	}
	d := New(520, 9)
	d.CopyFrom(a)
	if !d.Equal(a) {
		t.Fatal("CopyFrom did not replicate bits")
	}
	if a.Equal(New(520, 10)) {
		t.Fatal("Equal true for different dimensions")
	}
}

func TestResetZeroes(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := randomMatrix(rng, 100, 8, 0.5)
	if !m.Any() {
		t.Fatal("random matrix unexpectedly empty")
	}
	m.Reset()
	if m.Any() || m.PopCount() != 0 {
		t.Fatal("Reset left bits set")
	}
}

func TestColumnPopCountAndRowPopCounts(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	const rows, cols = 777, 21
	m := randomMatrix(rng, rows, cols, 0.2)

	wantCols := make([]int, cols)
	wantRows := make([]int, rows)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if m.Get(r, c) {
				wantCols[c]++
				wantRows[r]++
			}
		}
	}
	for c := 0; c < cols; c++ {
		if got := m.ColumnPopCount(c); got != wantCols[c] {
			t.Errorf("ColumnPopCount(%d) = %d, want %d", c, got, wantCols[c])
		}
	}
	for r := 0; r < rows; r++ {
		if got := len(m.RowBits(r)); got != wantRows[r] {
			t.Errorf("row %d has %d set bits, want %d", r, got, wantRows[r])
		}
	}
}

func TestForEachInColumnOrderAndCompleteness(t *testing.T) {
	m := New(1200, 3)
	want := []int{0, 5, 63, 64, 511, 512, 513, 1199}
	for _, r := range want {
		m.Set(r, 1)
	}
	m.Set(3, 0) // other columns must not leak in
	m.Set(4, 2)
	var got []int
	m.ForEachInColumn(1, func(row int) { got = append(got, row) })
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("ForEachInColumn = %v, want %v", got, want)
	}
}

func TestForEachSetVisitsEverything(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	m := randomMatrix(rng, 530, 6, 0.15)
	seen := map[[2]int]bool{}
	m.ForEachSet(func(r, c int) {
		if seen[[2]int{r, c}] {
			t.Fatalf("duplicate visit of (%d,%d)", r, c)
		}
		seen[[2]int{r, c}] = true
		if !m.Get(r, c) {
			t.Fatalf("visited unset bit (%d,%d)", r, c)
		}
	})
	if len(seen) != m.PopCount() {
		t.Fatalf("visited %d bits, want %d", len(seen), m.PopCount())
	}
}

func TestRowBitsAndColumnBits(t *testing.T) {
	m := New(600, 8)
	m.Set(599, 0)
	m.Set(599, 7)
	m.Set(599, 3)
	if got, want := m.RowBits(599), []int{0, 3, 7}; !reflect.DeepEqual(got, want) {
		t.Errorf("RowBits = %v, want %v", got, want)
	}
	if got := m.RowBits(0); got != nil {
		t.Errorf("RowBits of empty row = %v, want nil", got)
	}
	if got, want := columnBits(m, 3), []int{599}; !reflect.DeepEqual(got, want) {
		t.Errorf("column 3 = %v, want %v", got, want)
	}
}

// Property: for any set of coordinates, PopCount equals the number of
// distinct coordinates, and Get returns true exactly for those coordinates.
func TestQuickSetGetPopCount(t *testing.T) {
	f := func(coords []uint16) bool {
		const rows, cols = 1024, 40
		m := New(rows, cols)
		distinct := map[[2]int]bool{}
		for _, x := range coords {
			r := int(x) % rows
			c := (int(x) / rows) % cols
			m.Set(r, c)
			distinct[[2]int{r, c}] = true
		}
		if m.PopCount() != len(distinct) {
			return false
		}
		for rc := range distinct {
			if !m.Get(rc[0], rc[1]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: De Morgan-ish identity on the implemented ops:
// (a Or b) AndNot b == a AndNot b.
func TestQuickOrAndNotIdentity(t *testing.T) {
	f := func(seedA, seedB int64) bool {
		rngA := rand.New(rand.NewSource(seedA))
		rngB := rand.New(rand.NewSource(seedB))
		a := randomMatrix(rngA, 300, 10, 0.3)
		b := randomMatrix(rngB, 300, 10, 0.3)

		left := a.Clone()
		left.Or(b)
		left.AndNot(b)

		right := a.Clone()
		right.AndNot(b)
		return left.Equal(right)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}
