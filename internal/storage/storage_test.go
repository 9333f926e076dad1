package storage

import (
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/bitmatrix"
	"repro/internal/datagen"
	"repro/internal/graph"
)

func testGraph(t testing.TB) *graph.Graph {
	t.Helper()
	g, lay, err := datagen.FinancialGraph(datagen.FinConfig{
		NumPersons: 20, NumAccounts: 80, NumLoans: 10, NumMediums: 15,
		NumTransfers: 300, NumWithdraws: 60, Seed: 77, BlockedFraction: 0.2,
	})
	if err != nil {
		t.Fatal(err)
	}
	_ = lay
	return g
}

func TestWriteOpenRoundTrip(t *testing.T) {
	g := testGraph(t)
	dir := t.TempDir()
	if err := Write(dir, g); err != nil {
		t.Fatal(err)
	}
	g2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumVertices() != g.NumVertices() || g2.NumEdges() != g.NumEdges() {
		t.Fatalf("size mismatch: %d/%d vs %d/%d",
			g2.NumVertices(), g2.NumEdges(), g.NumVertices(), g.NumEdges())
	}
	if !reflect.DeepEqual(g2.EdgeLabels(), g.EdgeLabels()) {
		t.Fatalf("edge labels = %v, want %v", g2.EdgeLabels(), g.EdgeLabels())
	}
	for _, label := range g.EdgeLabels() {
		e1, e2 := g.Edges(label), g2.Edges(label)
		if e1.Len() != e2.Len() {
			t.Fatalf("%s edge count differs", label)
		}
		for i := 0; i < e1.Len(); i++ {
			s1, d1 := e1.Edge(i)
			s2, d2 := e2.Edge(i)
			if s1 != s2 || d1 != d2 {
				t.Fatalf("%s edge %d differs", label, i)
			}
		}
	}
	for _, label := range g.VertexLabels() {
		if !g2.Label(label).Equal(g.Label(label)) {
			t.Fatalf("label %s bitmap differs", label)
		}
	}
	for _, name := range g.PropNames() {
		c1, c2 := g.Prop(name), g2.Prop(name)
		if c1.Kind() != c2.Kind() || c1.Len() != c2.Len() {
			t.Fatalf("property %s shape differs", name)
		}
		for i := 0; i < c1.Len(); i++ {
			if c1.Value(i) != c2.Value(i) {
				t.Fatalf("property %s row %d: %v vs %v", name, i, c1.Value(i), c2.Value(i))
			}
		}
	}
}

func TestStringColumnRoundTrip(t *testing.T) {
	b := graph.NewBuilder(3)
	b.SetProp("name", graph.StringColumn{"", "héllo", "with\x00byte"})
	b.AddEdge("e", 0, 1)
	g := b.MustBuild()
	dir := t.TempDir()
	if err := Write(dir, g); err != nil {
		t.Fatal(err)
	}
	g2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	col := g2.Prop("name").(graph.StringColumn)
	if !reflect.DeepEqual(col, graph.StringColumn{"", "héllo", "with\x00byte"}) {
		t.Fatalf("strings = %q", col)
	}
}

func TestReadMetaValidation(t *testing.T) {
	dir := t.TempDir()
	if _, err := ReadMeta(dir); err == nil {
		t.Error("missing metadata accepted")
	}
	os.WriteFile(filepath.Join(dir, "metadata.json"), []byte("{not json"), 0o644)
	if _, err := ReadMeta(dir); err == nil {
		t.Error("corrupt metadata accepted")
	}
	os.WriteFile(filepath.Join(dir, "metadata.json"), []byte(`{"version":99,"num_vertices":1}`), 0o644)
	if _, err := ReadMeta(dir); err == nil {
		t.Error("wrong version accepted")
	}
	os.WriteFile(filepath.Join(dir, "metadata.json"), []byte(`{"version":1,"num_vertices":-1}`), 0o644)
	if _, err := ReadMeta(dir); err == nil {
		t.Error("negative vertex count accepted")
	}
}

func TestOpenDetectsTruncatedEdgeFile(t *testing.T) {
	g := testGraph(t)
	dir := t.TempDir()
	if err := Write(dir, g); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "edges", "transfer.coo")
	if err := os.Truncate(path, 12); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); err == nil {
		t.Fatal("truncated edge file accepted")
	}
}

func TestOpenDetectsTruncatedColumn(t *testing.T) {
	g := testGraph(t)
	dir := t.TempDir()
	if err := Write(dir, g); err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(filepath.Join(dir, "props", "id.col"), 5); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); err == nil {
		t.Fatal("truncated column accepted")
	}
}

func TestSpillRoundTrip(t *testing.T) {
	sm, err := NewSpillManager(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer sm.Close()

	rng := rand.New(rand.NewSource(13))
	var handles []Handle
	var originals []*bitmatrix.Matrix
	for i := 0; i < 5; i++ {
		m := bitmatrix.New(600+i*100, 40)
		for j := 0; j < 500; j++ {
			m.Set(rng.Intn(m.Rows()), rng.Intn(m.Cols()))
		}
		h, err := sm.Spill(i%2, m)
		if err != nil {
			t.Fatal(err)
		}
		handles = append(handles, h)
		originals = append(originals, m)
	}
	if sm.SpilledBytes() == 0 {
		t.Fatal("no bytes recorded")
	}
	for i, h := range handles {
		m, err := sm.Load(h)
		if err != nil {
			t.Fatal(err)
		}
		if !m.Equal(originals[i]) {
			t.Fatalf("matrix %d round-trip mismatch", i)
		}
	}
	if _, err := sm.Load(Handle(999)); err == nil {
		t.Fatal("unknown handle accepted")
	}
}

// A matrix with a sparse stack and a dense one spills and loads back with
// its bits, its stack forms (so its size) and its reservation intact.
func TestSpillRoundTripMixedForms(t *testing.T) {
	sm, err := NewSpillManager(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer sm.Close()
	m := bitmatrix.NewSparse(900, 5000)
	sb := m.BuildStack(0)
	sb.AddRow(3, []uint32{4999, 17, 17, 0})
	sb.AddRow(400, []uint32{17})
	sb.Finish()
	sb = m.BuildStack(1)
	all := make([]uint32, 5000)
	for i := range all {
		all[i] = uint32(i)
	}
	sb.AddRow(899, all) // past the sparse bound: this stack is dense
	sb.Finish()
	h, err := sm.Spill(0, m)
	if err != nil {
		t.Fatal(err)
	}
	back, err := sm.Load(h)
	if err != nil {
		t.Fatal(err)
	}
	if !back.Equal(m) || back.PopCount() != 5004 || back.SizeBytes() != m.SizeBytes() {
		t.Fatalf("mixed round trip: equal %v, %d bits, %d bytes (want %d)",
			back.Equal(m), back.PopCount(), back.SizeBytes(), m.SizeBytes())
	}
	if m.SizeBytes() >= bitmatrix.New(900, 5000).SizeBytes() {
		t.Fatalf("the sparse stack is not sparse: %d bytes", m.SizeBytes())
	}
}

func TestSpillConcurrentWorkers(t *testing.T) {
	sm, err := NewSpillManager(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer sm.Close()

	const workers = 4
	const perWorker = 8
	type result struct {
		h Handle
		m *bitmatrix.Matrix
	}
	results := make(chan result, workers*perWorker)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < perWorker; i++ {
				m := bitmatrix.New(512, 30)
				for j := 0; j < 100; j++ {
					m.Set(rng.Intn(512), rng.Intn(30))
				}
				h, err := sm.Spill(w, m)
				if err != nil {
					t.Error(err)
					return
				}
				results <- result{h, m}
			}
		}(w)
	}
	wg.Wait()
	close(results)
	for r := range results {
		m, err := sm.Load(r.h)
		if err != nil {
			t.Fatal(err)
		}
		if !m.Equal(r.m) {
			t.Fatal("concurrent spill corrupted a matrix")
		}
	}
}

// countingBudget is a Budget that tracks the bytes it has outstanding.
type countingBudget struct{ held int64 }

func (b *countingBudget) Reserve(n int64) error { b.held += n; return nil }
func (b *countingBudget) Release(n int64)       { b.held -= n }

// TestSpillWriteErrorReleasesReservation: a spill whose write fails must
// still return its buffer reservation. The worker's file is swapped for a
// read-only handle on the same path, so the Seek succeeds and the Write
// fails.
func TestSpillWriteErrorReleasesReservation(t *testing.T) {
	sm, err := NewSpillManager(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer sm.Close()
	budget := &countingBudget{}
	sm.Budget = budget

	m := bitmatrix.New(512, 8)
	m.Set(1, 1)
	if _, err := sm.Spill(0, m); err != nil {
		t.Fatal(err)
	}
	ro, err := os.Open(sm.files[0].Name())
	if err != nil {
		t.Fatal(err)
	}
	if err := sm.files[0].Close(); err != nil {
		t.Fatal(err)
	}
	sm.files[0] = ro

	if _, err := sm.Spill(0, m); err == nil {
		t.Fatal("spill into a read-only file succeeded")
	}
	if budget.held != 0 {
		t.Fatalf("budget holds %d bytes after the failed spill, want 0", budget.held)
	}
}

func TestSpillCloseRemovesFiles(t *testing.T) {
	dir := t.TempDir()
	sm, err := NewSpillManager(dir)
	if err != nil {
		t.Fatal(err)
	}
	m := bitmatrix.New(10, 10)
	m.Set(1, 1)
	if _, err := sm.Spill(0, m); err != nil {
		t.Fatal(err)
	}
	if err := sm.Close(); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Fatalf("spill files remain: %v", entries)
	}
}

func TestEmptyGraphRoundTrip(t *testing.T) {
	g := graph.NewBuilder(0).MustBuild()
	dir := t.TempDir()
	if err := Write(dir, g); err != nil {
		t.Fatal(err)
	}
	g2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumVertices() != 0 || g2.NumEdges() != 0 {
		t.Fatal("empty graph round trip failed")
	}
}

// Property: Open on arbitrarily corrupted bytes errors — never panics,
// never returns a half-read graph silently.
func TestQuickOpenSurvivesCorruption(t *testing.T) {
	g := testGraph(t)
	base := t.TempDir()
	if err := Write(base, g); err != nil {
		t.Fatal(err)
	}
	var files []string
	err := filepath.WalkDir(base, func(path string, d os.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			files = append(files, path)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}

	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		dir := t.TempDir()
		// Copy the valid store, then corrupt one file.
		for _, src := range files {
			rel, _ := filepath.Rel(base, src)
			dst := filepath.Join(dir, rel)
			os.MkdirAll(filepath.Dir(dst), 0o755)
			raw, err := os.ReadFile(src)
			if err != nil {
				return false
			}
			os.WriteFile(dst, raw, 0o644)
		}
		victim := files[rng.Intn(len(files))]
		rel, _ := filepath.Rel(base, victim)
		raw, _ := os.ReadFile(filepath.Join(dir, rel))
		switch rng.Intn(3) {
		case 0: // truncate
			if len(raw) > 0 {
				raw = raw[:rng.Intn(len(raw))]
			}
		case 1: // flip bytes
			for i := 0; i < 8 && len(raw) > 0; i++ {
				raw[rng.Intn(len(raw))] ^= byte(1 + rng.Intn(255))
			}
		case 2: // append garbage
			raw = append(raw, make([]byte, 1+rng.Intn(64))...)
		}
		os.WriteFile(filepath.Join(dir, rel), raw, 0o644)

		defer func() {
			if r := recover(); r != nil {
				t.Errorf("seed %d: Open panicked on corrupted %s: %v", seed, rel, r)
			}
		}()
		// Either it errors, or the corruption was semantically harmless
		// (e.g. flipped vertex id still in range) — both are acceptable;
		// panics and silent short-reads are not.
		g2, err := Open(dir)
		if err == nil && g2.NumVertices() != g.NumVertices() {
			t.Errorf("seed %d: silent corruption accepted for %s", seed, rel)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}
