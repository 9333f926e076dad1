package bitmatrix

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// formsPair is one random bit set held twice: dense, built with New and
// Set, and built through StackBuilder, whose stacks may come out sparse,
// promoted or mixed.
type formsPair struct {
	rows, cols int
	dense      *Matrix
	built      *Matrix
	// bounded is set when every builder kept the default promotion bound.
	bounded bool
}

// buildForms draws a bit set from rng. Its stacks all keep the default
// promotion bound, all stay sparse whatever they hold, or each draws one
// of: stay sparse, promote before the first row, promote half-way through
// its bits.
func buildForms(rng *rand.Rand) formsPair {
	rows := 1 + rng.Intn(3*StackRows)
	cols := 1 + rng.Intn(300)
	p := formsPair{rows: rows, cols: cols, dense: New(rows, cols), built: NewSparse(rows, cols)}
	density := rng.Float64() * rng.Float64() * 0.3
	mode := rng.Intn(3)
	p.bounded = mode == 0
	for s := 0; s < p.dense.Stacks(); s++ {
		sb := p.built.BuildStack(s)
		var rowCols [][]uint32
		total := 0
		for r := s * StackRows; r < min(rows, (s+1)*StackRows); r++ {
			var cs []uint32
			for c := 0; c < cols; c++ {
				if rng.Float64() < density {
					cs = append(cs, uint32(c))
					if rng.Intn(8) == 0 {
						cs = append(cs, uint32(c)) // a repeat, as BFS without pruning hands over
					}
				}
			}
			rng.Shuffle(len(cs), func(i, j int) { cs[i], cs[j] = cs[j], cs[i] })
			rowCols = append(rowCols, cs)
			total += len(cs)
		}
		switch {
		case mode == 1:
			sb.limit = math.MaxInt
		case mode == 2:
			sb.limit = []int{math.MaxInt, 0, total / 2}[rng.Intn(3)]
		}
		for i, cs := range rowCols {
			r := s*StackRows + i
			sb.AddRow(r, cs)
			for _, c := range cs {
				p.dense.Set(r, int(c))
			}
		}
		sb.Finish()
	}
	return p
}

// ascendingSubset draws a strictly ascending subset of [0, n).
func ascendingSubset(rng *rand.Rand, n int) []uint32 {
	keep := rng.Float64()
	var out []uint32
	for c := 0; c < n; c++ {
		if rng.Float64() < keep {
			out = append(out, uint32(c))
		}
	}
	return out
}

type seedRow struct{ i, row int }

// seedRows runs ForEachSeed and returns what it delivered, stopping after
// stopAt rows when stopAt ≥ 0.
func seedRows(m *Matrix, cols []uint32, stopAt int) []seedRow {
	var out []seedRow
	cur := -1
	ForEachSeed(m, cols, func(i int) bool { cur = i; return true }, func(r int) bool {
		out = append(out, seedRow{cur, r})
		return stopAt < 0 || len(out) < stopAt
	})
	return out
}

// nonzeroCounts runs SeedCounts and keeps the non-zero counts.
func nonzeroCounts(m *Matrix, cols []uint32) [][2]int {
	var out [][2]int
	SeedCounts(m, cols, func(i, n int) bool {
		if n > 0 {
			out = append(out, [2]int{i, n})
		}
		return true
	})
	return out
}

func allSet(m *Matrix) [][2]int {
	var out [][2]int
	m.ForEachSet(func(r, c int) { out = append(out, [2]int{r, c}) })
	return out
}

// checkForms fails t unless every exported method agrees on the two forms
// of the bit sets seed draws.
func checkForms(t *testing.T, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	x := buildForms(rng)
	xd, xs := x.dense, x.built
	if !xs.Equal(xd) || !xd.Equal(xs) {
		t.Fatalf("seed %d: built matrix differs from dense", seed)
	}
	if x.bounded && xs.SizeBytes() > xd.SizeBytes() {
		t.Fatalf("seed %d: built matrix holds %d bytes, dense %d", seed, xs.SizeBytes(), xd.SizeBytes())
	}
	if xs.PopCount() != xd.PopCount() || xs.Any() != xd.Any() {
		t.Fatalf("seed %d: PopCount/Any %d,%v vs %d,%v", seed, xs.PopCount(), xs.Any(), xd.PopCount(), xd.Any())
	}
	for r := 0; r < x.rows; r++ {
		if !reflect.DeepEqual(xs.RowBits(r), xd.RowBits(r)) {
			t.Fatalf("seed %d: RowBits(%d) differ", seed, r)
		}
		for c := 0; c < x.cols; c++ {
			if xs.Get(r, c) != xd.Get(r, c) {
				t.Fatalf("seed %d: Get(%d,%d) differs", seed, r, c)
			}
		}
	}
	if !reflect.DeepEqual(allSet(xs), allSet(xd)) {
		t.Fatalf("seed %d: ForEachSet differs", seed)
	}
	dst, src := xd.NewColumn(), xd.NewColumn()
	want := xd.NewColumn()
	for c := 0; c < x.cols; c++ {
		if xs.ColumnPopCount(c) != xd.ColumnPopCount(c) {
			t.Fatalf("seed %d: ColumnPopCount(%d) differs", seed, c)
		}
		var a, b []int
		xs.ForEachInColumn(c, func(r int) { a = append(a, r) })
		xd.ForEachInColumn(c, func(r int) { b = append(b, r) })
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("seed %d: ForEachInColumn(%d) = %v, want %v", seed, c, a, b)
		}
		for i := range src {
			src[i] = rng.Uint64()
		}
		for _, k := range []struct {
			name string
			run  func(m *Matrix, dst []uint64)
		}{
			{"CopyColumn", func(m *Matrix, dst []uint64) { m.CopyColumn(dst, c) }},
			{"AndColumn", func(m *Matrix, dst []uint64) { copy(dst, src); m.AndColumn(dst, c) }},
			{"AndFrom", func(m *Matrix, dst []uint64) { m.AndFrom(dst, src, c) }},
		} {
			k.run(xd, want)
			k.run(xs, dst)
			if !reflect.DeepEqual(dst, want) {
				t.Fatalf("seed %d: %s(%d) = %x, want %x", seed, k.name, c, dst, want)
			}
		}
	}
	for n := 0; n < 4; n++ {
		cols := ascendingSubset(rng, x.cols)
		stopAt := -1
		if n == 3 {
			stopAt = rng.Intn(8)
		}
		if a, b := seedRows(xs, cols, stopAt), seedRows(xd, cols, stopAt); !reflect.DeepEqual(a, b) {
			t.Fatalf("seed %d: ForEachSeed over %v = %v, want %v", seed, cols, a, b)
		}
		if a, b := nonzeroCounts(xs, cols), nonzeroCounts(xd, cols); !reflect.DeepEqual(a, b) {
			t.Fatalf("seed %d: SeedCounts = %v, want %v", seed, a, b)
		}
	}
	enc := xs.AppendBinary(nil)
	if len(enc) != xs.EncodedLen() {
		t.Fatalf("seed %d: encoding is %d bytes, EncodedLen says %d", seed, len(enc), xs.EncodedLen())
	}
	if back, err := Decode(enc); err != nil || !back.Equal(xd) || back.SizeBytes() != xs.SizeBytes() {
		t.Fatalf("seed %d: Decode = %v (equal %v)", seed, err, err == nil && back.Equal(xd))
	}
	if c := xs.Clone(); !c.Equal(xd) || c.SizeBytes() != xs.SizeBytes() {
		t.Fatalf("seed %d: Clone differs", seed)
	}
	// The element-wise operations, each form on either side, against the
	// dense result.
	y := buildFormsShaped(rng, x.rows, x.cols)
	for _, op := range []struct {
		name string
		run  func(a, b *Matrix)
	}{
		{"And", (*Matrix).And}, {"Or", (*Matrix).Or}, {"AndNot", (*Matrix).AndNot},
		{"CopyFrom", (*Matrix).CopyFrom},
	} {
		ref := xd.Clone()
		op.run(ref, y.dense)
		for _, pair := range [][2]*Matrix{{xs, y.dense}, {xd, y.built}, {xs, y.built}} {
			got := pair[0].Clone()
			op.run(got, pair[1])
			if !got.Equal(ref) || got.PopCount() != ref.PopCount() {
				t.Fatalf("seed %d: %s differs from the dense result", seed, op.name)
			}
		}
	}
	// Set on a sparse stack makes it dense and keeps Get consistent.
	a, b := xs.Clone(), xd.Clone()
	if x.rows > 0 {
		r, c := rng.Intn(x.rows), rng.Intn(x.cols)
		a.Set(r, c)
		b.Set(r, c)
		if !a.Equal(b) || a.Get(r, c) != b.Get(r, c) {
			t.Fatalf("seed %d: Set differs", seed)
		}
	}
	// Reset, then round-trip and compare with the dense twin: an empty
	// stack has one form whether Reset, a builder that saw no row, or
	// NewSparse before any builder finished left it.
	a.Reset()
	b.Reset()
	fresh, built := NewSparse(x.rows, x.cols), NewSparse(x.rows, x.cols)
	for s := 0; s < built.Stacks(); s++ {
		built.BuildStack(s).Finish()
	}
	for i, m := range []*Matrix{a, b, fresh, built} {
		enc := m.AppendBinary(nil)
		back, err := Decode(enc)
		if err != nil || len(enc) != m.EncodedLen() || m.Any() {
			t.Fatalf("seed %d: empty matrix %d: Decode = %v, %d bytes of %d, Any %v", seed, i, err, len(enc), m.EncodedLen(), m.Any())
		}
		if !back.Equal(b) || !b.Equal(back) || !m.Equal(a) || !a.Equal(m) {
			t.Fatalf("seed %d: empty matrix %d differs from the reset dense twin", seed, i)
		}
	}
}

// buildFormsShaped draws a second bit set at fixed dimensions, a third
// of its stacks promoted before their first row.
func buildFormsShaped(rng *rand.Rand, rows, cols int) formsPair {
	q := formsPair{rows: rows, cols: cols, dense: New(rows, cols), built: NewSparse(rows, cols)}
	for s := 0; s < q.dense.Stacks(); s++ {
		sb := q.built.BuildStack(s)
		if rng.Intn(3) == 0 {
			sb.limit = 0
		}
		for r := s * StackRows; r < min(rows, (s+1)*StackRows); r++ {
			var cs []uint32
			for c := 0; c < cols; c++ {
				if rng.Intn(16) == 0 {
					cs = append(cs, uint32(c))
					q.dense.Set(r, c)
				}
			}
			sb.AddRow(r, cs)
		}
		sb.Finish()
	}
	return q
}

// FuzzMatrixForms checks that a bit set built dense and built through the
// stack builder (sparse, promoted or mixed stacks) answers every exported
// method alike.
func FuzzMatrixForms(f *testing.F) {
	for _, s := range []int64{1, 2, 3, 42, 1 << 20} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		checkForms(t, seed)
	})
}

// TestQuickMatrixForms is the same check over testing/quick's seeds.
func TestQuickMatrixForms(t *testing.T) {
	err := quick.Check(func(seed int64) bool {
		checkForms(t, seed)
		return !t.Failed()
	}, &quick.Config{MaxCount: 20})
	if err != nil {
		t.Fatal(err)
	}
}

// TestDecodeRejectsCorruptSparse pins that Decode refuses encodings that
// break the sparse form's invariants instead of building a matrix the
// kernels would misread.
func TestDecodeRejectsCorruptSparse(t *testing.T) {
	m := NewSparse(600, 40)
	sb := m.BuildStack(0)
	sb.AddRow(3, []uint32{5, 9})
	sb.AddRow(7, []uint32{9})
	sb.Finish()
	sb = m.BuildStack(1)
	sb.AddRow(599, []uint32{1})
	sb.Finish()
	enc := m.AppendBinary(nil)
	if back, err := Decode(enc); err != nil || !back.Equal(m) {
		t.Fatalf("round trip: %v", err)
	}
	for i := 16; i < len(enc); i++ {
		bad := append([]byte(nil), enc...)
		bad[i] ^= 0xff
		if back, err := Decode(bad); err == nil && back.Equal(m) {
			t.Fatalf("flipping byte %d went unnoticed", i)
		}
	}
	if _, err := Decode(enc[:len(enc)-1]); err == nil {
		t.Fatal("truncated encoding accepted")
	}
}
