package vslint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// This file computes the per-function summaries the interprocedural
// analyzers consume. Summaries are calculated bottom-up over the call
// graph's strongly connected components: when a function is summarized,
// every callee outside its own component already has a final summary, so
// one fixpoint loop inside each component suffices. The propagated fact is
// a monotone "may acquire this lock" set, so the fixpoint terminates; the
// allocation fact is direct (hotpath-closure walks the graph itself).

// LockStep is one step of a lock-acquisition witness: the function either
// acquires Class directly (Via == "") or reaches it by calling Via.
type LockStep struct {
	Class  string
	Via    string
	Pos    token.Position
	Approx bool
}

// FuncSummary is the interprocedural abstract of one function.
type FuncSummary struct {
	Name string
	// Locks maps every lock class the function may acquire (transitively,
	// in the same goroutine) to the first step of a witness chain.
	Locks map[string]LockStep
	// AllocReason is the first construct forEachAlloc reports in the body
	// ("" when it reports none), at AllocPos; the hotpath-closure analyzer
	// overrides it with the compiler baseline's escape count when one is
	// recorded.
	AllocReason string
	AllocPos    token.Position
}

// Summaries holds the summary of every call-graph node.
type Summaries struct {
	byNode map[*FuncNode]*FuncSummary
	byName map[string]*FuncSummary
}

// Of returns n's summary (never nil for a graph node the summaries were
// computed over; an empty summary otherwise).
func (s *Summaries) Of(n *FuncNode) *FuncSummary {
	if sum, ok := s.byNode[n]; ok {
		return sum
	}
	return &FuncSummary{Name: n.Name}
}

// ByName returns the summary with the given qualified name, or nil.
func (s *Summaries) ByName(name string) *FuncSummary { return s.byName[name] }

// ComputeSummaries builds the summary of every node bottom-up over g's
// SCCs.
func ComputeSummaries(g *CallGraph) *Summaries {
	s := &Summaries{byNode: map[*FuncNode]*FuncSummary{}, byName: map[string]*FuncSummary{}}
	passes := map[*Package]*Pass{}
	passFor := func(pkg *Package) *Pass {
		if p, ok := passes[pkg]; ok {
			return p
		}
		p := &Pass{Fset: pkg.Fset, Files: pkg.Files, Pkg: pkg.Types, Info: pkg.Info}
		passes[pkg] = p
		return p
	}

	// Direct facts first: every node independently.
	for _, n := range g.Nodes {
		sum := &FuncSummary{Name: n.Name, Locks: map[string]LockStep{}}
		s.byNode[n] = sum
		s.byName[n.Name] = sum
		if n.Pkg == nil || n.Body() == nil {
			continue
		}
		p := passFor(n.Pkg)
		collectDirectLocks(p, n, sum)
		var fn ast.Node = n.Lit
		if n.Decl != nil {
			fn = n.Decl
		}
		forEachAlloc(p, fn, func(pos token.Pos, what string) bool {
			sum.AllocReason, sum.AllocPos = what, p.Fset.Position(pos)
			return false
		})
	}

	// Propagation: bottom-up over SCCs, iterating inside each component
	// until nothing changes.
	for _, comp := range g.SCCs {
		for changed := true; changed; {
			changed = false
			for _, n := range comp {
				if n.Body() == nil {
					continue
				}
				if propagateLocks(g, s, n) {
					changed = true
				}
			}
		}
	}
	return s
}

// globalLockClass names a mutex globally: "pkgpath.OwnerType.field" for a
// struct-field mutex, "pkgpath.var" for a package-level one, "" for locals
// and anything the keying cannot identify across functions.
func globalLockClass(p *Pass, lockExpr ast.Expr) string {
	switch e := unparen(lockExpr).(type) {
	case *ast.SelectorExpr:
		field, ok := p.Info.Uses[e.Sel].(*types.Var)
		if !ok || !field.IsField() || field.Pkg() == nil {
			return ""
		}
		owner := namedTypeName(p.typeOf(e.X))
		if owner == "" {
			return ""
		}
		return field.Pkg().Path() + "." + owner + "." + field.Name()
	case *ast.Ident:
		v, ok := p.Info.Uses[e].(*types.Var)
		if !ok || v.Pkg() == nil {
			return ""
		}
		if v.Parent() != v.Pkg().Scope() {
			return "" // local mutex: invisible across functions
		}
		return v.Pkg().Path() + "." + v.Name()
	}
	return ""
}

// mutexAcquire matches a call of (R)Lock on a sync.Mutex/RWMutex and
// returns the lock expression. Lock modes are deliberately not
// distinguished: recursive RLock can still deadlock against a pending
// writer, so the order graph treats a read lock like a write lock.
func mutexAcquire(p *Pass, call *ast.CallExpr) (ast.Expr, bool) {
	sel, ok := unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil, false
	}
	if tn := namedTypeName(p.typeOf(sel.X)); tn != "Mutex" && tn != "RWMutex" {
		return nil, false
	}
	if sel.Sel.Name != "Lock" && sel.Sel.Name != "RLock" {
		return nil, false
	}
	return sel.X, true
}

// collectDirectLocks records the lock classes n acquires in its own body.
func collectDirectLocks(p *Pass, n *FuncNode, sum *FuncSummary) {
	ast.Inspect(n.Body(), func(node ast.Node) bool {
		if lit, ok := node.(*ast.FuncLit); ok && lit.Body != n.Body() {
			return false // the literal is its own node
		}
		call, ok := node.(*ast.CallExpr)
		if !ok {
			return true
		}
		if lockExpr, ok := mutexAcquire(p, call); ok {
			if class := globalLockClass(p, lockExpr); class != "" {
				if _, seen := sum.Locks[class]; !seen {
					sum.Locks[class] = LockStep{Class: class, Pos: p.Fset.Position(call.Pos())}
				}
			}
		}
		return true
	})
}

// propagateLocks folds callee lock sets into n's; returns true on change.
// Go-spawned calls are excluded: a lock acquired in a spawned goroutine is
// not held in the caller's goroutine, so it cannot order against the
// caller's held set.
func propagateLocks(g *CallGraph, s *Summaries, n *FuncNode) bool {
	sum := s.byNode[n]
	changed := false
	for _, e := range n.Out {
		if e.Go || e.Callee == g.Unknown || e.Kind == EdgeUnknown {
			continue
		}
		calleeSum := s.byNode[e.Callee]
		if calleeSum == nil {
			continue
		}
		for class, step := range calleeSum.Locks {
			approx := e.Kind.Approx() || step.Approx
			prev, seen := sum.Locks[class]
			if seen && (!prev.Approx || approx) {
				continue // keep the existing (equal-or-better) witness
			}
			sum.Locks[class] = LockStep{
				Class:  class,
				Via:    e.Callee.Name,
				Pos:    n.Pkg.Fset.Position(e.Pos),
				Approx: approx,
			}
			changed = true
		}
	}
	return changed
}
