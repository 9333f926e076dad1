package vslint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// This file computes the per-function summaries the interprocedural
// analyzers consume. Summaries are calculated bottom-up over the call
// graph's strongly connected components: when a function is summarized,
// every callee outside its own component already has a final summary, so
// one fixpoint loop inside each component suffices. All summarized facts
// are monotone "may" bits — may acquire this lock, may have a net resource
// effect, may allocate — so the fixpoint terminates.

// LockStep is one step of a lock-acquisition witness: the function either
// acquires Class directly (Via == "") or reaches it by calling Via.
type LockStep struct {
	Class  string
	Via    string
	Pos    token.Position
	Approx bool
}

// ResEffect is one net resource effect a function exposes through its own
// interface: "calling me acquires (or releases) the table resource rooted
// at parameter Param's Path". Only unbalanced effects are exported — a
// function that both reserves and releases internally has no net effect.
type ResEffect struct {
	Rule    string // resourceTable receiver type, e.g. "Accountant"
	Param   int    // -1 = method receiver
	Path    string // selector path below the parameter, e.g. ".acct"
	Acquire bool   // false = release
	Defer   bool   // release registered with defer (fires on every exit)
	Pos     token.Position
}

// FuncSummary is the interprocedural abstract of one function.
type FuncSummary struct {
	Name string
	// Locks maps every lock class the function may acquire (transitively,
	// in the same goroutine) to the first step of a witness chain.
	Locks map[string]LockStep
	// Effects lists the net resource effects rooted at parameters.
	Effects []ResEffect
	// HasCtx reports a context.Context (or carrier struct) parameter or
	// receiver; literals inherit it from the enclosing function.
	HasCtx bool
	// Spawns are go-statement positions; Detaches are context.Background /
	// context.TODO call positions. Both are direct (non-transitive).
	Spawns   []token.Position
	Detaches []token.Position
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
	effectBits := map[*FuncNode]map[effectKey]*effectState{}
	for _, n := range g.Nodes {
		sum := &FuncSummary{Name: n.Name, Locks: map[string]LockStep{}}
		s.byNode[n] = sum
		s.byName[n.Name] = sum
		if n.Pkg == nil || n.Body() == nil {
			continue
		}
		p := passFor(n.Pkg)
		collectDirectLocks(p, n, sum)
		effectBits[n] = collectDirectEffects(p, n)
		collectCtxFacts(p, n, s, sum)
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
				if propagateEffects(s, effectBits, n) {
					changed = true
				}
			}
		}
	}

	// Export the unbalanced effect bits in a deterministic order.
	for n, bits := range effectBits {
		s.byNode[n].Effects = exportEffects(bits)
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

// effectKey identifies one (rule, parameter, path) resource slot.
type effectKey struct {
	rule  string
	param int
	path  string
}

// effectState is the pair of monotone bits for one slot.
type effectState struct {
	acquire, release bool
	deferRelease     bool
	pos              token.Position
}

// paramIndex maps n's receiver and parameter objects to their indexes
// (-1 for the receiver).
func paramIndex(p *Pass, n *FuncNode) map[types.Object]int {
	idx := map[types.Object]int{}
	if n.Decl == nil {
		return idx // literal params are not mappable by callers here
	}
	if n.Decl.Recv != nil {
		for _, f := range n.Decl.Recv.List {
			for _, name := range f.Names {
				if obj := p.Info.Defs[name]; obj != nil {
					idx[obj] = -1
				}
			}
		}
	}
	i := 0
	for _, f := range n.Decl.Type.Params.List {
		if len(f.Names) == 0 {
			i++
			continue
		}
		for _, name := range f.Names {
			if obj := p.Info.Defs[name]; obj != nil {
				idx[obj] = i
			}
			i++
		}
	}
	return idx
}

// rootedAtParam splits a selector chain rooted at a parameter into the
// parameter index and the remaining path (".acct", "" for the parameter
// itself). ok is false when the chain roots elsewhere.
func rootedAtParam(p *Pass, params map[types.Object]int, e ast.Expr) (param int, path string, ok bool) {
	key := exprKey(e)
	if key == "" {
		return 0, "", false
	}
	root, rest, _ := strings.Cut(key, ".")
	// Resolve the root identifier to its object.
	var rootID *ast.Ident
	cur := unparen(e)
	for {
		if sel, isSel := cur.(*ast.SelectorExpr); isSel {
			cur = unparen(sel.X)
			continue
		}
		rootID, _ = cur.(*ast.Ident)
		break
	}
	if rootID == nil || rootID.Name != root {
		return 0, "", false
	}
	obj := p.Info.Uses[rootID]
	if obj == nil {
		return 0, "", false
	}
	idx, isParam := params[obj]
	if !isParam {
		return 0, "", false
	}
	if rest != "" {
		rest = "." + rest
	}
	return idx, rest, true
}

// collectDirectEffects records n's own table calls rooted at parameters.
func collectDirectEffects(p *Pass, n *FuncNode) map[effectKey]*effectState {
	bits := map[effectKey]*effectState{}
	params := paramIndex(p, n)
	if len(params) == 0 {
		return bits
	}
	var walk func(node ast.Node, deferred bool)
	walk = func(node ast.Node, deferred bool) {
		ast.Inspect(node, func(sub ast.Node) bool {
			switch sub := sub.(type) {
			case *ast.FuncLit:
				if sub.Body != n.Body() {
					return false
				}
			case *ast.DeferStmt:
				if sub != node {
					walk(sub.Call, true)
					return false
				}
			case *ast.CallExpr:
				rule, recvExpr, acquire, release := classifyTableCall(p, sub)
				if rule == "" {
					return true
				}
				param, path, ok := rootedAtParam(p, params, recvExpr)
				if !ok {
					return true
				}
				k := effectKey{rule: rule, param: param, path: path}
				st := bits[k]
				if st == nil {
					st = &effectState{pos: p.Fset.Position(sub.Pos())}
					bits[k] = st
				}
				if acquire && !deferred {
					st.acquire = true
				}
				if release {
					st.release = true
					if deferred {
						st.deferRelease = true
					}
				}
			}
			return true
		})
	}
	walk(n.Body(), false)
	return bits
}

// propagateEffects folds callee net effects through static call sites into
// n's effect bits; returns true on change. Only static, synchronous calls
// propagate: an approximate candidate's net effect is not a fact about n.
func propagateEffects(s *Summaries, effectBits map[*FuncNode]map[effectKey]*effectState, n *FuncNode) bool {
	bits := effectBits[n]
	if bits == nil {
		return false
	}
	if n.Decl == nil || n.Pkg == nil {
		return false
	}
	p := &Pass{Fset: n.Pkg.Fset, Files: n.Pkg.Files, Pkg: n.Pkg.Types, Info: n.Pkg.Info}
	params := paramIndex(p, n)
	if len(params) == 0 {
		return false
	}
	changed := false
	for _, e := range n.Out {
		if e.Kind != EdgeStatic || e.Go || e.Call == nil {
			continue
		}
		calleeBits := effectBits[e.Callee]
		for k, calleeState := range calleeBits {
			if calleeState.acquire == calleeState.release {
				continue // balanced or empty: no net effect to inherit
			}
			arg := effectArgExpr(e.Call, k.param)
			if arg == nil {
				continue
			}
			param, path, ok := rootedAtParam(p, params, arg)
			if !ok {
				continue
			}
			nk := effectKey{rule: k.rule, param: param, path: path + k.path}
			st := bits[nk]
			if st == nil {
				st = &effectState{pos: p.Fset.Position(e.Pos)}
				bits[nk] = st
			}
			if calleeState.acquire && !st.acquire {
				st.acquire, changed = true, true
			}
			if calleeState.release && !st.release {
				st.release, changed = true, true
				if calleeState.deferRelease {
					st.deferRelease = true
				}
			}
		}
	}
	return changed
}

// effectArgExpr returns the caller-side expression bound to the callee's
// parameter index (-1 = method receiver).
func effectArgExpr(call *ast.CallExpr, param int) ast.Expr {
	if param == -1 {
		sel, ok := unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return nil
		}
		return sel.X
	}
	if param >= 0 && param < len(call.Args) {
		return call.Args[param]
	}
	return nil
}

// exportEffects renders the unbalanced bits deterministically.
func exportEffects(bits map[effectKey]*effectState) []ResEffect {
	var out []ResEffect
	for k, st := range bits {
		if st.acquire == st.release {
			continue
		}
		out = append(out, ResEffect{
			Rule:    k.rule,
			Param:   k.param,
			Path:    k.path,
			Acquire: st.acquire,
			Defer:   st.deferRelease,
			Pos:     st.pos,
		})
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Rule != b.Rule {
			return a.Rule < b.Rule
		}
		if a.Param != b.Param {
			return a.Param < b.Param
		}
		return a.Path < b.Path
	})
	return out
}

// collectCtxFacts records carrier status, go statements, and Background/
// TODO detach positions.
func collectCtxFacts(p *Pass, n *FuncNode, s *Summaries, sum *FuncSummary) {
	switch {
	case n.Decl != nil:
		sum.HasCtx = hasContextCarrier(p, n.Decl)
	case n.Lit != nil:
		sum.HasCtx = litHasCarrier(p, n.Lit)
		if !sum.HasCtx && n.Parent != nil {
			// A closure sees the enclosing function's ctx by capture.
			if ps := s.byNode[n.Parent]; ps != nil {
				sum.HasCtx = ps.HasCtx
			}
		}
	}
	ast.Inspect(n.Body(), func(node ast.Node) bool {
		switch node := node.(type) {
		case *ast.FuncLit:
			if node.Body != n.Body() {
				return false
			}
		case *ast.GoStmt:
			sum.Spawns = append(sum.Spawns, p.Fset.Position(node.Pos()))
		case *ast.CallExpr:
			if name, ok := contextPackageCall(p, node); ok && (name == "Background" || name == "TODO") {
				sum.Detaches = append(sum.Detaches, p.Fset.Position(node.Pos()))
			}
		}
		return true
	})
}

// litHasCarrier checks a literal's own parameter list for a ctx carrier.
func litHasCarrier(p *Pass, lit *ast.FuncLit) bool {
	if lit.Type.Params == nil {
		return false
	}
	for _, f := range lit.Type.Params.List {
		t := p.typeOf(f.Type)
		if isContextType(t) || carriesContextField(t) {
			return true
		}
	}
	return false
}
