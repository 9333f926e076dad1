package vslint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"strings"
	"testing"
)

func buildGraphFromSrc(t *testing.T, src string) *CallGraph {
	t.Helper()
	return BuildCallGraph(parseModuleSrc(t, src))
}

// wantEdges asserts the golden edge summary for one node.
func wantEdges(t *testing.T, g *CallGraph, name, want string) {
	t.Helper()
	n := g.NodeByName(name)
	if n == nil {
		t.Errorf("node %q missing from graph", name)
		return
	}
	if got := n.edgesSummary(); got != want {
		t.Errorf("%s edges:\n got  %q\n want %q", name, got, want)
	}
}

func TestCallGraphGoldenStaticAndMethods(t *testing.T) {
	g := buildGraphFromSrc(t, `package seed

type T struct{}

func (t *T) m() { helper() }

func helper() {}

func top(t *T) {
	t.m()
	go helper()
}
`)
	wantEdges(t, g, "seed.top", "seed.(*T).m[static] seed.helper[static,go]")
	wantEdges(t, g, "seed.(*T).m", "seed.helper[static]")
	wantEdges(t, g, "seed.helper", "")
}

func TestCallGraphGoldenFieldDispatch(t *testing.T) {
	// The callback field has two recorded candidates (assignment and
	// composite literal); the call site gets a field edge to each.
	g := buildGraphFromSrc(t, `package seed

type H struct{ fn func(int) }

func a(int) {}
func b(int) {}

func wire() *H {
	h := &H{fn: a}
	h.fn = b
	return h
}

func fire(h *H) { h.fn(1) }
`)
	wantEdges(t, g, "seed.fire", "seed.a[field] seed.b[field]")
}

func TestCallGraphGoldenInterfaceDispatch(t *testing.T) {
	g := buildGraphFromSrc(t, `package seed

type Doer interface{ Do() }

type A struct{}
type B struct{}

func (A) Do() {}
func (*B) Do() {}
func (*B) Other() {}

func run(d Doer) { d.Do() }
`)
	wantEdges(t, g, "seed.run", "seed.(*B).Do[iface] seed.A.Do[iface]")
}

func TestCallGraphGoldenSigDispatchAndLiterals(t *testing.T) {
	g := buildGraphFromSrc(t, `package seed

func cb(int) {}

func take(f func(int)) { f(2) }

func start() {
	take(cb)
	func() {}() // immediately invoked: static, not a value candidate
}
`)
	wantEdges(t, g, "seed.take", "seed.cb[sig]")
	wantEdges(t, g, "seed.start", "seed.start.func1[static] seed.take[static]")
}

func TestCallGraphUnknownCalleeForOpaqueValues(t *testing.T) {
	// A function value returned by another call has no recorded candidates:
	// the call must still be represented, as an edge to the unknown node.
	g := buildGraphFromSrc(t, `package seed

func get() func() { return nil }

func run() {
	f := get()
	f()
}
`)
	n := g.NodeByName("seed.run")
	if n == nil {
		t.Fatal("seed.run missing")
	}
	found := false
	for _, e := range n.Out {
		if e.Callee == g.Unknown && e.Kind.Approx() {
			found = true
		}
	}
	if !found {
		t.Errorf("no approximate unknown-callee edge out of seed.run: %s", n.edgesSummary())
	}
}

func TestCallGraphLiteralNodesInheritParentMarkers(t *testing.T) {
	g := buildGraphFromSrc(t, `package seed

//vs:coldpath
func cold() {
	f := func() {}
	f()
}
`)
	lit := g.NodeByName("seed.cold.func1")
	if lit == nil {
		t.Fatal("literal node seed.cold.func1 missing")
	}
	if !lit.Coldpath {
		t.Error("closure in a //vs:coldpath function must inherit Coldpath")
	}
}

func TestCallGraphSCCInvariants(t *testing.T) {
	g := buildGraphFromSrc(t, `package seed

func a() { b() }
func b() { c(); a() } // a<->b cycle
func c() {}

func solo() { solo() } // self-recursive: its own SCC
`)
	checkCallGraphInvariants(t, g)

	// a and b share a component; c sits strictly below it.
	na, nb, nc := g.NodeByName("seed.a"), g.NodeByName("seed.b"), g.NodeByName("seed.c")
	if na == nil || nb == nil || nc == nil {
		t.Fatal("nodes missing")
	}
	if na.SCC != nb.SCC {
		t.Errorf("a.SCC=%d b.SCC=%d, want equal (mutual recursion)", na.SCC, nb.SCC)
	}
	if nc.SCC >= na.SCC {
		t.Errorf("c.SCC=%d not below a.SCC=%d: components must come out bottom-up", nc.SCC, na.SCC)
	}
}

// checkCallGraphInvariants asserts the structural properties every build
// must satisfy, independent of input: membership of each node in exactly
// one SCC, consistent SCC indexes, bottom-up component order, and In/Out
// edge mirroring.
func checkCallGraphInvariants(t *testing.T, g *CallGraph) {
	t.Helper()
	seen := map[*FuncNode]int{}
	for i, comp := range g.SCCs {
		if len(comp) == 0 {
			t.Errorf("SCCs[%d] is empty", i)
		}
		for _, n := range comp {
			if prev, dup := seen[n]; dup {
				t.Errorf("node %s in SCCs[%d] and SCCs[%d]", n.Name, prev, i)
			}
			seen[n] = i
			if n.SCC != i {
				t.Errorf("node %s: SCC field %d but found in SCCs[%d]", n.Name, n.SCC, i)
			}
		}
	}
	for _, n := range g.Nodes {
		if n == g.Unknown {
			continue
		}
		if _, ok := seen[n]; !ok {
			t.Errorf("node %s missing from SCCs", n.Name)
		}
		for _, e := range n.Out {
			if e.Caller != n {
				t.Errorf("edge out of %s has Caller=%s", n.Name, e.Caller.Name)
			}
			if e.Callee != g.Unknown && e.Callee.SCC > n.SCC {
				t.Errorf("edge %s -> %s goes upward in SCC order (%d -> %d)",
					n.Name, e.Callee.Name, n.SCC, e.Callee.SCC)
			}
			mirrored := false
			for _, in := range e.Callee.In {
				if in == e {
					mirrored = true
				}
			}
			if !mirrored {
				t.Errorf("edge %s -> %s not mirrored in callee.In", n.Name, e.Callee.Name)
			}
		}
	}
}

// TestCallGraphOnRepoExecAndEngine checks the graph over the real module:
// the cache/accountant/engine wiring that motivated the interprocedural
// layer must come out with the expected shape.
func TestCallGraphOnRepoExecAndEngine(t *testing.T) {
	if testing.Short() {
		t.Skip("full-module type check is slow; skipped with -short")
	}
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	mod, err := LoadModule(root)
	if err != nil {
		t.Fatal(err)
	}
	g := BuildCallGraph(mod)
	checkCallGraphInvariants(t, g)

	put := g.NodeByName("repro/internal/exec.(*MatrixCache).Put")
	if put == nil {
		t.Fatal("exec.(*MatrixCache).Put missing from graph")
	}
	edges := put.edgesSummary()
	for _, want := range []string{
		"repro/internal/exec.(*Accountant).TryReserve[static]",
		"repro/internal/exec.(*MatrixCache).evictOldestLocked[static]",
	} {
		if !strings.Contains(edges, want) {
			t.Errorf("Put edges lack %q:\n%s", want, edges)
		}
	}

	// Reserve invokes the OnPressure field; the engine wires it to
	// EvictBytes, so the field-candidate edge must be present and precise.
	reserve := g.NodeByName("repro/internal/exec.(*Accountant).Reserve")
	if reserve == nil {
		t.Fatal("exec.(*Accountant).Reserve missing from graph")
	}
	if !strings.Contains(reserve.edgesSummary(), "repro/internal/exec.(*MatrixCache).EvictBytes[field]") {
		t.Errorf("Reserve lacks the OnPressure field edge to EvictBytes:\n%s", reserve.edgesSummary())
	}

	get := g.NodeByName("repro/internal/exec.(*MatrixCache).Get")
	if get == nil || !get.Hotpath {
		t.Error("exec.(*MatrixCache).Get must be a hotpath root")
	}
}

func FuzzCallGraphBuild(f *testing.F) {
	f.Add(`package p
func a() { b() }
func b() { a() }
`)
	f.Add(`package p
type H struct{ fn func() }
func wire(h *H) { h.fn = wire2(h) }
func wire2(h *H) func() { return func() { h.fn() } }
`)
	f.Add(`package p
type I interface{ M() }
type T struct{}
func (T) M() {}
func call(i I) { i.M(); go i.M() }
`)
	f.Fuzz(func(t *testing.T, src string) {
		fset := token.NewFileSet()
		file, err := parser.ParseFile(fset, "fuzz.go", src, parser.ParseComments)
		if err != nil {
			return // only parseable inputs are interesting
		}
		info := &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
			Scopes:     map[ast.Node]*types.Scope{},
			Implicits:  map[ast.Node]types.Object{},
		}
		// Best-effort type check with no importer: the graph builder must
		// tolerate arbitrarily incomplete type information.
		conf := types.Config{Error: func(error) {}}
		tpkg, _ := conf.Check("fuzz", fset, []*ast.File{file}, info)
		if tpkg == nil {
			return
		}
		pkg := &Package{
			ImportPath: "fuzz",
			Dir:        ".",
			Fset:       fset,
			Files:      []*ast.File{file},
			Types:      tpkg,
			Info:       info,
		}
		mod := &Module{Root: ".", Path: "fuzz", Fset: fset, Pkgs: []*Package{pkg},
			byPath: map[string]*Package{"fuzz": pkg}}
		g := BuildCallGraph(mod) // must never panic
		checkCallGraphInvariants(t, g)
		ComputeSummaries(g) // neither may the summary pass
	})
}
