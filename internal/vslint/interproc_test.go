package vslint

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"strings"
	"testing"
)

// parseModuleSrc type-checks one synthetic file as a single-package module
// for the interprocedural tests.
func parseModuleSrc(t *testing.T, src string) *Module {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "seed.go", src, parser.ParseComments)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	conf := types.Config{Importer: importer.ForCompiler(fset, "source", nil)}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Scopes:     map[ast.Node]*types.Scope{},
		Implicits:  map[ast.Node]types.Object{},
	}
	tpkg, err := conf.Check("seed", fset, []*ast.File{f}, info)
	if err != nil {
		t.Fatalf("typecheck: %v", err)
	}
	pkg := &Package{
		ImportPath: "seed",
		Dir:        ".",
		Fset:       fset,
		Files:      []*ast.File{f},
		Types:      tpkg,
		Info:       info,
	}
	return &Module{
		Root:   ".",
		Path:   "seed",
		Fset:   fset,
		Pkgs:   []*Package{pkg},
		byPath: map[string]*Package{"seed": pkg},
	}
}

// checkModuleSrc runs the full pipeline over one synthetic file.
func checkModuleSrc(t *testing.T, src string, opts Options) *Result {
	t.Helper()
	mod := parseModuleSrc(t, src)
	return CheckModule(mod, mod.Pkgs, opts)
}

// reserveFixture reproduces the MatrixCache/Accountant wiring from
// internal/exec in miniature: Reserve fires the OnPressure callback, the
// engine wires OnPressure to EvictBytes, and EvictBytes takes the cache
// mutex — so Reserve under the cache mutex is a self-deadlock.
const reserveFixture = `package seed

import "sync"

type Accountant struct{ OnPressure func(n int64) }

func (a *Accountant) Reserve(n int64) {
	if a.OnPressure != nil {
		a.OnPressure(n)
	}
}
func (a *Accountant) TryReserve(n int64) bool { return true }
func (a *Accountant) Release(n int64)         {}

type MatrixCache struct {
	mu   sync.Mutex
	acct *Accountant
}

func (c *MatrixCache) EvictBytes(n int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
}

func wire(c *MatrixCache, a *Accountant) {
	a.OnPressure = func(n int64) { c.EvictBytes(n) }
}
`

// TestLockOrderReproducesReserveUnderCacheMutex is the acceptance test for
// the generic lock-order graph: the rule lockcheck.go used to hardcode
// (no Accountant.Reserve while the MatrixCache mutex is held) must fall
// out of held-set × summary propagation, with a call-chain witness naming
// at least the holding frame (Put) and the re-entrant callee (Reserve).
func TestLockOrderReproducesReserveUnderCacheMutex(t *testing.T) {
	res := checkModuleSrc(t, reserveFixture+`
func (c *MatrixCache) Put(n int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.acct.Reserve(n)
}
`, Options{})
	var hit *Finding
	for i, f := range res.Findings {
		if containsAnalyzer(f.Analyzer, "lock-order") && strings.Contains(f.Message, "cycle") {
			hit = &res.Findings[i]
		}
	}
	if hit == nil {
		t.Fatalf("no lock-order cycle finding; got:\n%s", renderFindings(res.Findings))
	}
	if hit.Severity != SeverityError {
		t.Errorf("cycle finding severity = %q, want error (every edge is precise: static, field candidates)", hit.Severity)
	}
	for _, frame := range []string{"Put", "Reserve"} {
		if !strings.Contains(hit.Message, frame) {
			t.Errorf("witness chain lacks frame %q: %s", frame, hit.Message)
		}
	}
}

func TestLockOrderTryReserveIsClean(t *testing.T) {
	res := checkModuleSrc(t, reserveFixture+`
func (c *MatrixCache) Put(n int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.acct.TryReserve(n) {
		return
	}
}
`, Options{})
	for _, f := range res.Findings {
		if containsAnalyzer(f.Analyzer, "lock-order") {
			t.Errorf("unexpected lock-order finding: %s", f)
		}
	}
}

func TestLockOrderCatchesABBACycle(t *testing.T) {
	res := checkModuleSrc(t, `package seed

import "sync"

type A struct{ mu sync.Mutex }
type B struct{ mu sync.Mutex }

func f(a *A, b *B) {
	a.mu.Lock()
	defer a.mu.Unlock()
	b.mu.Lock()
	defer b.mu.Unlock()
}

func g(a *A, b *B) {
	b.mu.Lock()
	defer b.mu.Unlock()
	a.mu.Lock()
	defer a.mu.Unlock()
}
`, Options{})
	n := 0
	for _, f := range res.Findings {
		if containsAnalyzer(f.Analyzer, "lock-order") && strings.Contains(f.Message, "cycle") {
			n++
		}
	}
	if n != 2 {
		t.Errorf("want both halves of the ABBA cycle reported, got %d:\n%s", n, renderFindings(res.Findings))
	}
}

func TestLockOrderConsistentOrderIsClean(t *testing.T) {
	res := checkModuleSrc(t, `package seed

import "sync"

type A struct{ mu sync.Mutex }
type B struct{ mu sync.Mutex }

func f(a *A, b *B) {
	a.mu.Lock()
	defer a.mu.Unlock()
	b.mu.Lock()
	defer b.mu.Unlock()
}

func g(a *A, b *B) {
	a.mu.Lock()
	b.mu.Lock()
	b.mu.Unlock()
	a.mu.Unlock()
}
`, Options{})
	for _, f := range res.Findings {
		if containsAnalyzer(f.Analyzer, "lock-order") {
			t.Errorf("unexpected lock-order finding for a consistent A→B order: %s", f)
		}
	}
}

func TestLockOrderInterfaceDispatchIsAdvisory(t *testing.T) {
	// The cycle exists only through an interface dispatch guess, so the
	// finding must be demoted to an approximate advisory.
	res := checkModuleSrc(t, `package seed

import "sync"

type Locker interface{ Touch() }

type A struct{ mu sync.Mutex }

func (a *A) Touch() {
	a.mu.Lock()
	defer a.mu.Unlock()
}

func f(a *A, l Locker) {
	a.mu.Lock()
	defer a.mu.Unlock()
	l.Touch()
}
`, Options{})
	found := false
	for _, f := range res.Findings {
		if containsAnalyzer(f.Analyzer, "lock-order") && strings.Contains(f.Message, "cycle") {
			found = true
			if f.Severity != SeverityInfo || !f.Approx {
				t.Errorf("iface-dependent cycle must be info+approx, got severity=%q approx=%v", f.Severity, f.Approx)
			}
		}
	}
	if !found {
		t.Errorf("no advisory cycle finding; got:\n%s", renderFindings(res.Findings))
	}
}

// --- hotpath closure -----------------------------------------------------

func TestHotpathClosureFlagsAllocatingHelper(t *testing.T) {
	res := checkModuleSrc(t, `package seed

//vs:hotpath
func hot(dst, src []uint64) {
	for i := range dst {
		dst[i] |= src[i]
	}
	helper()
}

func helper() []int {
	return make([]int, 8)
}
`, Options{})
	found := false
	for _, f := range res.Findings {
		if containsAnalyzer(f.Analyzer, "hotpath-closure") {
			found = true
			if f.Severity != SeverityError {
				t.Errorf("static-edge closure violation must be an error, got %q", f.Severity)
			}
			if !strings.Contains(f.Message, "seed.hot") || !strings.Contains(f.Message, "make") {
				t.Errorf("finding lacks root or reason: %s", f.Message)
			}
		}
	}
	if !found {
		t.Errorf("allocating helper in hotpath closure not reported; got:\n%s", renderFindings(res.Findings))
	}
}

// TestHotpathClosureSharesHotpathAllocRules: one classifier decides for
// both analyzers, so a helper whose only allocation is boxing an argument
// into an interface parameter is flagged as a closure member exactly as it
// would be inside the root.
func TestHotpathClosureSharesHotpathAllocRules(t *testing.T) {
	res := checkModuleSrc(t, `package seed

func sink(v any) {}

//vs:hotpath
func hot(n int) {
	box(n)
}

func box(n int) { sink(n) }
`, Options{})
	wantFinding(t, res.Findings, "hotpath-closure", "seed.box")
	wantFinding(t, res.Findings, "hotpath-closure", "implicit conversion of int to interface parameter")
}

func TestHotpathClosureColdpathAndNoinlineStopTraversal(t *testing.T) {
	res := checkModuleSrc(t, `package seed

//vs:hotpath
func hot(dst []uint64) {
	cold()
	outlined()
}

// cold is the declared slow path.
//
//vs:coldpath
func cold() []int { return make([]int, 8) }

//go:noinline
func outlined() []int { return make([]int, 8) }
`, Options{})
	for _, f := range res.Findings {
		if containsAnalyzer(f.Analyzer, "hotpath-closure") {
			t.Errorf("unexpected closure finding past a coldpath/noinline boundary: %s", f)
		}
	}
}

func TestHotpathClosureBaselineCleanOverridesSyntacticAlloc(t *testing.T) {
	base := &CompilerBaseline{
		Schema: CompilerSchema,
		Functions: map[string]FunctionCounts{
			"seed.helper": {Escapes: 0},
		},
	}
	res := checkModuleSrc(t, `package seed

//vs:hotpath
func hot(dst []uint64) {
	helper()
}

func helper() {
	buf := make([]int, 8)
	_ = buf
}
`, Options{Baseline: base})
	for _, f := range res.Findings {
		if containsAnalyzer(f.Analyzer, "hotpath-closure") {
			t.Errorf("baseline-clean helper must not be reported: %s", f)
		}
	}
}

func TestHotpathClosureTransitiveDepth(t *testing.T) {
	res := checkModuleSrc(t, `package seed

//vs:hotpath
func hot(dst []uint64) {
	a()
}

func a() { b() }
func b() { c() }
func c() []int { return make([]int, 8) }
`, Options{})
	found := false
	for _, f := range res.Findings {
		if containsAnalyzer(f.Analyzer, "hotpath-closure") && strings.Contains(f.Message, "seed.c") {
			found = true
			if !strings.Contains(f.Message, "seed.a → seed.b → seed.c") {
				t.Errorf("witness chain incomplete: %s", f.Message)
			}
		}
	}
	if !found {
		t.Errorf("depth-3 allocating callee not reported; got:\n%s", renderFindings(res.Findings))
	}
}

// --- dedup ---------------------------------------------------------------

func TestDedupeMergesSamePositionFindings(t *testing.T) {
	in := sortFindings([]Finding{
		{Analyzer: "span-leak", Pos: token.Position{Filename: "x.go", Line: 4, Column: 2}, Message: "span may leak", Severity: SeverityError},
		{Analyzer: "lock-discipline", Pos: token.Position{Filename: "x.go", Line: 4, Column: 2}, Message: "mutex not unlocked", Severity: SeverityInfo},
		{Analyzer: "span-leak", Pos: token.Position{Filename: "x.go", Line: 9, Column: 1}, Message: "other", Severity: SeverityError},
	})
	out := dedupeFindings(in)
	if len(out) != 2 {
		t.Fatalf("want 2 findings after dedup, got %d: %v", len(out), out)
	}
	merged := out[0]
	if merged.Analyzer != "lock-discipline+span-leak" {
		t.Errorf("merged analyzer = %q", merged.Analyzer)
	}
	if !strings.Contains(merged.Message, "span may leak") || !strings.Contains(merged.Message, "mutex not unlocked") {
		t.Errorf("merged message lost a part: %q", merged.Message)
	}
	if merged.Severity != SeverityError {
		t.Errorf("merged severity = %q, want error to win", merged.Severity)
	}
}

func TestInterprocNolintSuppressesModuleFindings(t *testing.T) {
	res := checkModuleSrc(t, `package seed

//vs:hotpath
func hot(dst []uint64) {
	helper()
}

func helper() []int {
	return make([]int, 8) //vs:nolint(hotpath-closure) scratch buffer is amortized; measured separately
}
`, Options{})
	for _, f := range res.Findings {
		if containsAnalyzer(f.Analyzer, "hotpath-closure") {
			t.Errorf("nolint did not suppress the closure finding: %s", f)
		}
	}
}
