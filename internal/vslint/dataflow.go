package vslint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// This file is the forward may-dataflow engine behind the resource-pairing
// analyzers (span-leak, lock-discipline) and lock-order's held sets. The
// domain is the set of open acquisition sites; merge is union ("may be
// open"), so a resource reported open at exit is open on at least one path.
//
// Modeling decisions shared by all pairing analyzers:
//
//   - A deferred release (`defer mu.Unlock()`) fires at function exit,
//     not at its textual position: during flow the fact stays open (so
//     ordering checks still see the lock held), and at exit any site with
//     a deferred release anywhere in the function is considered released.
//     A registered defer runs on every exit, including panics, so this is
//     sound for leak detection; the cost is masking a leak when the defer
//     is registered on only some paths.
//   - Handle-based resources (spans) stop being tracked when the handle
//     escapes — passed as an argument, returned, captured by a closure,
//     or address-taken. Ownership moved; the pairing obligation moved
//     with it.
//   - Re-acquiring into the same variable or key replaces the old fact
//     instead of reporting: `if sp == nil { ctx, sp = NewTrace(...) }`
//     is a handoff, not a leak.

// acqSite is one acquisition site inside a function.
type acqSite struct {
	id   int
	pos  token.Pos
	desc string // human-readable resource description for messages

	// Exactly one of obj (handle-based) and key (expression-keyed) is set.
	obj types.Object
	key string

	// class is the module-global lock class ("pkgpath.Owner.field"), set
	// for mutex sites the interprocedural lock-order graph can track; ""
	// for locals and non-lock resources.
	class string
}

// event is one acquire or release occurrence.
type event struct {
	acquire bool
	pos     token.Pos
	// acquire field
	site *acqSite
	// release fields: matched against sites by obj or key
	obj types.Object
	key string
	// deferred marks a release inside a defer statement: it fires at
	// function exit rather than at its position (set by the engine).
	deferred bool
}

// pairSpec configures one run of the pairing engine.
type pairSpec struct {
	// classify reports the acquire/release events of one statement-level
	// node. deferred is true inside a defer statement.
	classify func(p *Pass, n ast.Node, deferred bool, emit func(event))
	// handleBased enables the escape pre-pass on site objects.
	handleBased bool
	// leakMsg == nil puts the engine in silent collection mode: no leak or
	// unbalanced-release reports, only callCheck callbacks (the lock-order
	// analyzer reuses the flow to see held sets without re-reporting what
	// lock-discipline already covers).
	// unbalancedRelease additionally reports a release on a path where no
	// matching acquisition is open (double-unlock shapes). Only applied
	// to resources that are acquired somewhere in the function.
	unbalancedRelease bool
	leakMsg           func(s *acqSite) string
	releaseMsg        func(key string) string
	// callCheck, when set, runs for every call expression with the set of
	// sites held at that point (ordering rules).
	callCheck func(p *Pass, call *ast.CallExpr, held []*acqSite, reportf func(token.Pos, string, ...any))
}

// maxSites bounds the bitset fact domain; functions with more acquisition
// sites than this are skipped (none exist in practice).
const maxSites = 64

// runPairing runs spec over one function declaration.
func runPairing(p *Pass, fd *ast.FuncDecl, spec *pairSpec) {
	if fd.Body != nil {
		runPairingBody(p, fd.Body, spec)
	}
}

// runPairingBody runs spec over one function body (declaration or
// literal).
func runPairingBody(p *Pass, body *ast.BlockStmt, spec *pairSpec) {
	cfg := BuildCFG(body)

	// Pass 1: collect the per-block item sequences (events and calls) in
	// source order, assigning site ids as acquires appear.
	type item struct {
		pos  token.Pos
		ev   *event
		call *ast.CallExpr
	}
	var sites []*acqSite
	items := make([][]item, len(cfg.Blocks))
	for _, blk := range cfg.Blocks {
		for _, n := range blk.Nodes {
			var list []item
			deferred := false
			node := n
			if d, ok := n.(*ast.DeferStmt); ok {
				deferred = true
				node = d.Call
			}
			spec.classify(p, node, deferred, func(ev event) {
				if ev.acquire {
					ev.site.id = len(sites)
					ev.site.pos = ev.pos
					sites = append(sites, ev.site)
				}
				e := ev
				if !e.acquire {
					e.deferred = deferred
				}
				list = append(list, item{pos: ev.pos, ev: &e})
			})
			if spec.callCheck != nil {
				inspectNode(node, func(sub ast.Node) bool {
					if _, ok := sub.(*ast.FuncLit); ok {
						return false
					}
					if call, ok := sub.(*ast.CallExpr); ok {
						list = append(list, item{pos: call.Pos(), call: call})
					}
					return true
				})
			}
			sort.SliceStable(list, func(i, j int) bool { return list[i].pos < list[j].pos })
			items[blk.Index] = append(items[blk.Index], list...)
		}
	}
	if len(sites) == 0 || len(sites) > maxSites {
		return
	}

	// Escape pre-pass: stop tracking handles that leave the function.
	escaped := map[types.Object]bool{}
	if spec.handleBased {
		track := map[types.Object]bool{}
		for _, s := range sites {
			if s.obj != nil {
				track[s.obj] = true
			}
		}
		escaped = escapedObjects(p, body, track)
	}
	live := func(s *acqSite) bool { return s.obj == nil || !escaped[s.obj] }

	// Masks for matching releases and re-acquisitions against sites.
	sameResource := func(obj types.Object, key string) uint64 {
		var m uint64
		for _, s := range sites {
			if (obj != nil && s.obj == obj) || (key != "" && s.key == key) {
				m |= 1 << uint(s.id)
			}
		}
		return m
	}
	hasAcquire := map[string]bool{}
	var deferredMask uint64 // sites covered by a deferred release (fires at exit)
	for _, blockItems := range items {
		for _, it := range blockItems {
			if it.ev == nil {
				continue
			}
			if it.ev.acquire {
				if it.ev.site.key != "" {
					hasAcquire[it.ev.site.key] = true
				}
				continue
			}
			if it.ev.deferred {
				deferredMask |= sameResource(it.ev.obj, it.ev.key)
			}
		}
	}

	// transfer folds one block's items over a fact set. reportf is nil
	// during the fixpoint iterations and set on the single reporting pass.
	transfer := func(blk *Block, in uint64, reportf func(token.Pos, string, ...any)) uint64 {
		facts := in
		for _, it := range items[blk.Index] {
			switch {
			case it.call != nil:
				if reportf != nil && spec.callCheck != nil {
					var held []*acqSite
					for _, s := range sites {
						if facts&(1<<uint(s.id)) != 0 && live(s) {
							held = append(held, s)
						}
					}
					spec.callCheck(p, it.call, held, reportf)
				}
			case it.ev != nil && it.ev.acquire:
				s := it.ev.site
				facts &^= sameResource(s.obj, s.key) // re-acquisition replaces
				facts |= 1 << uint(s.id)
			case it.ev != nil:
				if it.ev.deferred {
					// Fires at function exit, not here: the fact stays
					// open so ordering checks still see it held.
					break
				}
				m := sameResource(it.ev.obj, it.ev.key)
				if reportf != nil && spec.unbalancedRelease && facts&m == 0 &&
					it.ev.key != "" && hasAcquire[it.ev.key] {
					reportf(it.ev.pos, "%s", spec.releaseMsg(it.ev.key))
				}
				facts &^= m
			}
		}
		return facts
	}

	// Fixpoint over the blocks reachable from entry. Unreachable blocks
	// (dead code, detached loop joins) must not feed facts into live ones.
	reachable := make([]bool, len(cfg.Blocks))
	queue := []*Block{cfg.Entry}
	reachable[cfg.Entry.Index] = true
	for len(queue) > 0 {
		blk := queue[0]
		queue = queue[1:]
		for _, s := range blk.Succs {
			if !reachable[s.Index] {
				reachable[s.Index] = true
				queue = append(queue, s)
			}
		}
	}
	preds := make([][]*Block, len(cfg.Blocks))
	for _, blk := range cfg.Blocks {
		if !reachable[blk.Index] {
			continue
		}
		for _, s := range blk.Succs {
			preds[s.Index] = append(preds[s.Index], blk)
		}
	}
	// edgeIn filters the facts flowing across one branch edge: on the edge
	// where `x == nil` held (or `x != nil` failed), no acquisition bound to
	// x can be open — this is what makes the ubiquitous conditional-acquire
	// + nil-guarded-release shape (`if root != nil { root.End() }`) clean.
	edgeIn := func(pr, blk *Block, facts uint64) uint64 {
		if pr.Cond == nil || (pr.Then != blk && pr.Else != blk) {
			return facts
		}
		obj, eq := nilCompare(p, pr.Cond)
		if obj == nil {
			return facts
		}
		nilEdge := (eq && blk == pr.Then) || (!eq && blk == pr.Else)
		if !nilEdge {
			return facts
		}
		for _, s := range sites {
			if s.obj == obj {
				facts &^= 1 << uint(s.id)
			}
		}
		return facts
	}

	in := make([]uint64, len(cfg.Blocks))
	out := make([]uint64, len(cfg.Blocks))
	changed := true
	for changed {
		changed = false
		for _, blk := range cfg.Blocks {
			if !reachable[blk.Index] {
				continue
			}
			var newIn uint64
			for _, pr := range preds[blk.Index] {
				newIn |= edgeIn(pr, blk, out[pr.Index])
			}
			newOut := transfer(blk, newIn, nil)
			if newIn != in[blk.Index] || newOut != out[blk.Index] {
				in[blk.Index] = newIn
				out[blk.Index] = newOut
				changed = true
			}
		}
	}

	// Reporting pass: ordering checks and unbalanced releases fire once
	// per block with the converged in-sets; leaks are whatever may still
	// be open at exit.
	seen := map[string]bool{}
	reportf := func(pos token.Pos, format string, args ...any) {
		k := p.Fset.Position(pos).String() + format
		if !seen[k] {
			seen[k] = true
			p.Reportf(pos, format, args...)
		}
	}
	for _, blk := range cfg.Blocks {
		if reachable[blk.Index] {
			transfer(blk, in[blk.Index], reportf)
		}
	}
	if spec.leakMsg == nil {
		return // silent collection mode: callCheck only
	}
	for _, s := range sites {
		if in[cfg.Exit.Index]&(1<<uint(s.id)) == 0 || !live(s) {
			continue
		}
		if deferredMask&(1<<uint(s.id)) != 0 {
			continue // a deferred release covers every exit path
		}
		reportf(s.pos, "%s", spec.leakMsg(s))
	}
}

// escapedObjects returns the subset of track whose value escapes the
// function body: passed as a call argument, assigned away, returned,
// address-taken, placed in a composite literal, or captured by a closure.
// Receiver position of a method call and nil comparisons do not escape.
func escapedObjects(p *Pass, body *ast.BlockStmt, track map[types.Object]bool) map[types.Object]bool {
	esc := map[types.Object]bool{}
	var stack []ast.Node
	ast.Inspect(body, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if id, ok := n.(*ast.Ident); ok {
			if obj := p.Info.Uses[id]; obj != nil && track[obj] && escapingUse(stack, id) {
				esc[obj] = true
			}
		}
		stack = append(stack, n)
		return true
	})
	return esc
}

// escapingUse decides whether one identifier occurrence moves the handle
// out of the function's control. stack holds the ancestors of id, nearest
// last.
func escapingUse(stack []ast.Node, id *ast.Ident) bool {
	for i := len(stack) - 1; i >= 0; i-- {
		if _, ok := stack[i].(*ast.FuncLit); ok {
			return true // captured by a closure
		}
	}
	if len(stack) == 0 {
		return true
	}
	switch parent := stack[len(stack)-1].(type) {
	case *ast.SelectorExpr:
		// sp.End(), sp.field — operating on the handle, not moving it.
		return parent.X != ast.Expr(id)
	case *ast.BinaryExpr:
		return false // sp != nil and friends
	case *ast.AssignStmt:
		for _, lhs := range parent.Lhs {
			if lhs == ast.Expr(id) {
				return false // reassignment target, not a value use
			}
		}
		return true
	case *ast.IfStmt, *ast.ParenExpr:
		return false
	default:
		return true
	}
}

// inspectNode walks one block-level node, unwrapping the CFG's synthetic
// wrappers. For a range header only the iterated expression is visited
// (the body lives in successor blocks).
func inspectNode(n ast.Node, f func(ast.Node) bool) {
	switch n := n.(type) {
	case condNode:
		ast.Inspect(n.X, f)
	case *ast.RangeStmt:
		if n.Key != nil {
			ast.Inspect(n.Key, f)
		}
		if n.Value != nil {
			ast.Inspect(n.Value, f)
		}
		ast.Inspect(n.X, f)
	default:
		ast.Inspect(n, f)
	}
}

// exprKey renders a selector chain of identifiers ("c.mu", "s.Budget") as
// a stable key, or "" for anything more dynamic (calls, indexing), which
// the pairing analyzers skip rather than guess at aliasing.
func exprKey(e ast.Expr) string {
	switch e := unparen(e).(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		if base := exprKey(e.X); base != "" {
			return base + "." + e.Sel.Name
		}
	}
	return ""
}

// namedTypeName returns the name of t's (possibly pointer-wrapped) named
// type, or "".
func namedTypeName(t types.Type) string {
	if t == nil {
		return ""
	}
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return ""
}

// nilCompare matches a pure nil comparison `x == nil` / `x != nil` of a
// plain identifier and returns its object and whether the operator is ==.
func nilCompare(p *Pass, cond ast.Expr) (types.Object, bool) {
	be, ok := unparen(cond).(*ast.BinaryExpr)
	if !ok || (be.Op != token.EQL && be.Op != token.NEQ) {
		return nil, false
	}
	x, y := unparen(be.X), unparen(be.Y)
	if isNilIdent(p, x) {
		x, y = y, x
	}
	if !isNilIdent(p, y) {
		return nil, false
	}
	id, ok := x.(*ast.Ident)
	if !ok {
		return nil, false
	}
	return p.Info.Uses[id], be.Op == token.EQL
}

func isNilIdent(p *Pass, e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "nil" && p.Info.Uses[id] == types.Universe.Lookup("nil")
}

// calleeName returns the bare name of a call's function (method or
// package-level), or "".
func calleeName(call *ast.CallExpr) string {
	switch fun := unparen(call.Fun).(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		return fun.Sel.Name
	}
	return ""
}

// forEachFuncDecl runs f over every function declaration with a body.
func forEachFuncDecl(p *Pass, f func(fd *ast.FuncDecl)) {
	for _, file := range p.Files {
		for _, d := range file.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				f(fd)
			}
		}
	}
}
