package vslint

import (
	"os"
	"path/filepath"
	"testing"
)

// writeGenericModule builds an on-disk module exercising the generics
// surface the analyzers must survive: type-parameterized structs and
// functions, explicit and inferred instantiation, and methods on
// instantiated generic receivers.
func writeGenericModule(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	files := map[string]string{
		"go.mod": "module synthgen\n\ngo 1.22\n",
		"box.go": `package synthgen

import "sync"

// Box is a generic container whose value is guarded by its mutex.
type Box[T any] struct {
	mu sync.Mutex
	v  T
}

func (b *Box[T]) Set(v T) {
	b.mu.Lock()
	b.v = v
	b.mu.Unlock()
}

// racySet skips the lock; it runs on a spawned goroutine below.
func (b *Box[T]) racySet(v T) {
	b.v = v
}

// Snapshot allocates; the hotpath root Peek reaches it through an
// instantiated method call.
func (b *Box[T]) Snapshot() []T {
	return []T{b.v}
}

//vs:hotpath
func Peek(b *Box[int]) int {
	return b.Snapshot()[0]
}

// Map is a generic free function, called both explicitly instantiated and
// inferred.
func Map[T, U any](xs []T, f func(T) U) []U {
	out := make([]U, 0, len(xs))
	for _, x := range xs {
		out = append(out, f(x))
	}
	return out
}

func Spawn(b *Box[int]) {
	go b.racySet(1)
}

func useMap() {
	_ = Map[int, int]([]int{1}, func(x int) int { return x + 1 })
	_ = Map([]string{"a"}, func(s string) int { return len(s) })
}
`,
	}
	for name, content := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// TestInterprocOnGenericModule: the whole interprocedural pipeline —
// loading, call graph, summaries and the module analyzers — must handle
// type-parameterized code without panicking, and hotpath-closure must see
// through the instantiated method call: Peek reaches Box[int].Snapshot,
// which allocates.
func TestInterprocOnGenericModule(t *testing.T) {
	dir := writeGenericModule(t)
	mod, err := LoadModule(dir)
	if err != nil {
		t.Fatalf("LoadModule: %v", err)
	}
	res := CheckModule(mod, mod.Pkgs, Options{})
	wantFinding(t, res.Findings, "hotpath-closure", "synthgen.(*Box).Snapshot is reachable from //vs:hotpath root synthgen.Peek")
	wantNoFinding(t, res.Findings, "nolint-audit")
}

// TestCallGraphResolvesInstantiatedCalls: explicit instantiation
// (Map[int, int](...)) and instantiated method calls must produce static
// edges to the declared generic functions, not fall into <unknown>.
func TestCallGraphResolvesInstantiatedCalls(t *testing.T) {
	dir := writeGenericModule(t)
	mod, err := LoadModule(dir)
	if err != nil {
		t.Fatalf("LoadModule: %v", err)
	}
	g := BuildCallGraph(mod)

	mapNode := g.NodeByName("synthgen.Map")
	if mapNode == nil {
		t.Fatal("no node for synthgen.Map")
	}
	if got := len(mapNode.In); got != 2 {
		t.Errorf("Map has %d incoming edges, want 2 (explicit + inferred instantiation)", got)
	}
	for _, e := range mapNode.In {
		if e.Kind != EdgeStatic {
			t.Errorf("edge from %s has kind %s, want static", e.Caller.Name, e.Kind)
		}
	}

	racy := g.NodeByName("synthgen.(*Box).racySet")
	if racy == nil {
		t.Fatal("no node for synthgen.(*Box).racySet")
	}
	var spawned bool
	for _, e := range racy.In {
		if e.Go && e.Kind == EdgeStatic {
			spawned = true
		}
	}
	if !spawned {
		t.Errorf("racySet not reached by a static go edge; in-edges: %d", len(racy.In))
	}
}
