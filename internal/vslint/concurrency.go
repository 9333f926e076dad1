package vslint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// This file is the substrate of the guarded-by race analyzer: goroutine
// reachability over the call graph, a per-function may-held lockset scan
// built on the CFG, and the entry-lockset propagation that threads held
// locks through call chains. Its soundness posture mirrors lock-order:
// held-lock facts are computed as may-held (union over paths), entry
// locksets as the must-intersection over call sites, and go-spawned calls
// contribute the empty lockset — so the analysis errs toward silence on
// branchy locking rather than toward false races.

// spawnInfo records how a function becomes reachable from a go statement:
// the spawning edge at the head of the chain and the predecessor in the
// reachability walk, for witness rendering.
type spawnInfo struct {
	spawn  *CallEdge
	prev   *FuncNode
	approx bool
}

// goReachable computes every function the call graph can reach from a
// go-spawned callee. Two passes keep witnesses honest: the first follows
// only edges the type system guarantees, the second fills the remainder
// through approximate (iface/sig) dispatch and marks those entries approx
// so dependent findings demote to info severity.
func goReachable(g *CallGraph) map[*FuncNode]*spawnInfo {
	reach := make(map[*FuncNode]*spawnInfo)
	for _, exactOnly := range []bool{true, false} {
		var queue []*FuncNode
		for _, n := range g.Nodes {
			for _, e := range n.Out {
				if !e.Go || e.Callee == nil || e.Callee == g.Unknown || e.Callee.Body() == nil {
					continue
				}
				if exactOnly && e.Kind.Approx() {
					continue
				}
				if _, ok := reach[e.Callee]; ok {
					continue
				}
				reach[e.Callee] = &spawnInfo{spawn: e, approx: e.Kind.Approx()}
				queue = append(queue, e.Callee)
			}
		}
		if !exactOnly {
			// Re-seed everything already reached so approximate edges out
			// of exactly-reached nodes propagate on this pass too.
			for _, n := range g.Nodes {
				if _, ok := reach[n]; ok {
					queue = append(queue, n)
				}
			}
		}
		for len(queue) > 0 {
			n := queue[0]
			queue = queue[1:]
			ri := reach[n]
			for _, e := range n.Out {
				if e.Go || e.Callee == nil || e.Callee == g.Unknown || e.Callee.Body() == nil {
					continue
				}
				if exactOnly && e.Kind.Approx() {
					continue
				}
				if _, ok := reach[e.Callee]; ok {
					continue
				}
				reach[e.Callee] = &spawnInfo{
					spawn:  ri.spawn,
					prev:   n,
					approx: ri.approx || e.Kind.Approx(),
				}
				queue = append(queue, e.Callee)
			}
		}
	}
	return reach
}

// spawnChain returns the go edge that starts n's reachability chain and
// the function names along it, spawned function first.
func spawnChain(reach map[*FuncNode]*spawnInfo, n *FuncNode) (*CallEdge, []string) {
	var names []string
	cur := n
	for {
		ri := reach[cur]
		names = append(names, cur.Name)
		if ri.prev == nil {
			for i, j := 0, len(names)-1; i < j; i, j = i+1, j-1 {
				names[i], names[j] = names[j], names[i]
			}
			return ri.spawn, names
		}
		cur = ri.prev
	}
}

// stackWalker drives walkStack: an ast.Visitor that maintains the
// ancestor stack (nearest last) for the callback.
type stackWalker struct {
	stack []ast.Node
	fn    func(n ast.Node, stack []ast.Node) bool
}

func (w *stackWalker) Visit(n ast.Node) ast.Visitor {
	if n == nil {
		w.stack = w.stack[:len(w.stack)-1]
		return w
	}
	if !w.fn(n, w.stack) {
		return nil
	}
	w.stack = append(w.stack, n)
	return w
}

// walkStack walks root calling fn with each node and its ancestor stack
// (nearest last, seeded with base). Returning false skips the children.
func walkStack(root ast.Node, base []ast.Node, fn func(n ast.Node, stack []ast.Node) bool) {
	ast.Walk(&stackWalker{stack: base, fn: fn}, root)
}

// inspectBlockNode is the stack-carrying analogue of inspectNode: it walks
// one CFG block node, unwrapping the synthetic wrappers, and seeds range
// headers with the RangeStmt so key/value positions classify as writes.
func inspectBlockNode(n ast.Node, fn func(ast.Node, []ast.Node) bool) {
	switch n := n.(type) {
	case condNode:
		walkStack(n.X, nil, fn)
	case *ast.RangeStmt:
		base := []ast.Node{n}
		if n.Key != nil {
			walkStack(n.Key, base, fn)
		}
		if n.Value != nil {
			walkStack(n.Value, base, fn)
		}
		walkStack(n.X, base, fn)
	default:
		walkStack(n, nil, fn)
	}
}

// writeContext classifies one expression occurrence as a write: it is an
// assignment or inc/dec target, a range key/value, or has its address
// taken (which hands out a mutable alias). Element writes through a map or
// slice field (x.f[k] = v) count as writes of the field: the race is on
// the container the field holds.
func writeContext(stack []ast.Node, node ast.Node) bool {
	cur := node
	for i := len(stack) - 1; i >= 0; i-- {
		switch parent := stack[i].(type) {
		case *ast.ParenExpr:
			cur = parent
		case *ast.IndexExpr:
			if parent.X != cur {
				return false
			}
			cur = parent
		case *ast.StarExpr:
			cur = parent
		case *ast.AssignStmt:
			for _, lhs := range parent.Lhs {
				if lhs == cur {
					return true
				}
			}
			return false
		case *ast.IncDecStmt:
			return parent.X == cur
		case *ast.UnaryExpr:
			return parent.Op == token.AND && parent.X == cur
		case *ast.RangeStmt:
			return parent.Key == cur || parent.Value == cur
		default:
			return false
		}
	}
	return false
}

// selField resolves sel to the struct field it denotes, or nil. Fields of
// generic instantiations normalize to their declared (origin) object so
// every instantiation shares one guarded-by record.
func selField(p *Pass, sel *ast.SelectorExpr) *types.Var {
	if s, ok := p.Info.Selections[sel]; ok && s.Kind() == types.FieldVal {
		if v, ok := s.Obj().(*types.Var); ok {
			return v.Origin()
		}
	}
	return nil
}

// rootObj returns the object at the base of a selector/index/deref chain
// ("s" for s.reg.cursors[id]), or nil for dynamic bases.
func rootObj(p *Pass, e ast.Expr) types.Object {
	for {
		switch x := unparen(e).(type) {
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.Ident:
			if o := p.Info.Uses[x]; o != nil {
				return o
			}
			return p.Info.Defs[x]
		default:
			return nil
		}
	}
}

// maxLockClasses bounds the per-function lockset bitset; a function
// touching more distinct global lock classes is dropped from the tier
// (silently: no facts, no findings) rather than analyzed wrong.
const maxLockClasses = 64

// fieldAccess is one read or write of a tracked struct field.
type fieldAccess struct {
	obj   *types.Var
	pos   token.Pos
	write bool
	// owned marks accesses through a fresh, non-escaping local allocation
	// (the constructor pattern): private memory cannot race.
	owned bool
	// held is the set of lock classes locally held at the access.
	held map[string]bool
}

// funcLockFlow is one function's lockset result: its tracked field
// accesses and, per call site, the lock classes held when the call runs.
type funcLockFlow struct {
	accesses []fieldAccess
	callHeld map[token.Pos]map[string]bool
}

const (
	itemAcquire = iota
	itemRelease
	itemAccess
	itemCall
)

// lockItem is one ordered event inside a basic block.
type lockItem struct {
	pos    token.Pos
	kind   int
	class  string
	access int // index into funcLockFlow.accesses for itemAccess
}

// mutexRelease matches a call of (R)Unlock on a sync.Mutex/RWMutex and
// returns the lock expression.
func mutexRelease(p *Pass, call *ast.CallExpr) (ast.Expr, bool) {
	sel, ok := unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil, false
	}
	if tn := namedTypeName(p.typeOf(sel.X)); tn != "Mutex" && tn != "RWMutex" {
		return nil, false
	}
	if sel.Sel.Name != "Unlock" && sel.Sel.Name != "RUnlock" {
		return nil, false
	}
	return sel.X, true
}

// scanLockFlow runs the may-held lockset flow over one function body,
// recording the locks held at each tracked field access and call site.
// Deferred unlocks deliberately do not kill their class: the lock stays
// held until return, which is exactly the guarded region. Returns nil when
// the function exceeds the lock-class bitset.
func scanLockFlow(p *Pass, n *FuncNode, track map[*types.Var]bool) *funcLockFlow {
	body := n.Body()
	fl := &funcLockFlow{callHeld: map[token.Pos]map[string]bool{}}
	classBits := map[string]int{}
	var classes []string
	overflow := false
	bitFor := func(class string) int {
		if b, ok := classBits[class]; ok {
			return b
		}
		if len(classes) >= maxLockClasses {
			overflow = true
			return 0
		}
		b := len(classes)
		classBits[class] = b
		classes = append(classes, class)
		return b
	}
	owned := freshLocals(p, body)

	cfg := BuildCFG(body)
	items := make([][]lockItem, len(cfg.Blocks))
	for _, blk := range cfg.Blocks {
		bi := blk.Index
		for _, node := range blk.Nodes {
			deferred := false
			walkRoot := node
			if d, ok := node.(*ast.DeferStmt); ok {
				deferred = true
				walkRoot = d.Call
			}
			inspectBlockNode(walkRoot, func(x ast.Node, stack []ast.Node) bool {
				switch e := x.(type) {
				case *ast.FuncLit:
					return false // its own call-graph node
				case *ast.CallExpr:
					items[bi] = append(items[bi], lockItem{pos: e.Pos(), kind: itemCall})
					if lockExpr, ok := mutexAcquire(p, e); ok && !deferred {
						if class := globalLockClass(p, lockExpr); class != "" {
							items[bi] = append(items[bi], lockItem{pos: e.Pos(), kind: itemAcquire, class: class})
							bitFor(class)
						}
					} else if lockExpr, ok := mutexRelease(p, e); ok && !deferred {
						if class := globalLockClass(p, lockExpr); class != "" {
							items[bi] = append(items[bi], lockItem{pos: e.Pos(), kind: itemRelease, class: class})
							bitFor(class)
						}
					}
				case *ast.SelectorExpr:
					obj := selField(p, e)
					if obj == nil || !track[obj] {
						return true
					}
					idx := len(fl.accesses)
					fl.accesses = append(fl.accesses, fieldAccess{
						obj:   obj,
						pos:   e.Sel.Pos(),
						write: writeContext(stack, e),
						owned: ownedBase(p, e.X, owned),
					})
					items[bi] = append(items[bi], lockItem{pos: e.Pos(), kind: itemAccess, access: idx})
				}
				return true
			})
		}
		sort.SliceStable(items[bi], func(i, j int) bool { return items[bi][i].pos < items[bi][j].pos })
	}
	if overflow {
		return nil
	}

	// Forward may-held fixpoint: union at joins, acquire sets a bit,
	// non-deferred release clears it.
	apply := func(state uint64, its []lockItem) uint64 {
		for _, it := range its {
			switch it.kind {
			case itemAcquire:
				state |= 1 << uint(classBits[it.class])
			case itemRelease:
				state &^= 1 << uint(classBits[it.class])
			}
		}
		return state
	}
	in := make([]uint64, len(cfg.Blocks))
	for changed := true; changed; {
		changed = false
		for _, blk := range cfg.Blocks {
			out := apply(in[blk.Index], items[blk.Index])
			for _, s := range blk.Succs {
				if in[s.Index]|out != in[s.Index] {
					in[s.Index] |= out
					changed = true
				}
			}
		}
	}
	maskSet := func(state uint64) map[string]bool {
		if state == 0 {
			return nil
		}
		set := make(map[string]bool)
		for i, class := range classes {
			if state&(1<<uint(i)) != 0 {
				set[class] = true
			}
		}
		return set
	}
	for _, blk := range cfg.Blocks {
		state := in[blk.Index]
		for _, it := range items[blk.Index] {
			switch it.kind {
			case itemAcquire:
				state |= 1 << uint(classBits[it.class])
			case itemRelease:
				state &^= 1 << uint(classBits[it.class])
			case itemAccess:
				fl.accesses[it.access].held = unionSet(fl.accesses[it.access].held, maskSet(state))
			case itemCall:
				if state != 0 {
					fl.callHeld[it.pos] = unionSet(fl.callHeld[it.pos], maskSet(state))
				}
			}
		}
	}
	return fl
}

// ownedBase reports whether the access base bottoms out in a fresh local.
func ownedBase(p *Pass, base ast.Expr, owned map[types.Object]bool) bool {
	if len(owned) == 0 {
		return false
	}
	o := rootObj(p, base)
	return o != nil && owned[o]
}

// freshLocals returns the locals assigned a fresh allocation (&T{...},
// T{...}, new(T)) in body that never escape it. Accesses through them are
// private to the function until published — the constructor pattern — so
// the race analyzer skips them.
func freshLocals(p *Pass, body *ast.BlockStmt) map[types.Object]bool {
	fresh := map[types.Object]bool{}
	ast.Inspect(body, func(x ast.Node) bool {
		as, ok := x.(*ast.AssignStmt)
		if !ok {
			return true
		}
		if len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, lhs := range as.Lhs {
			id, ok := unparen(lhs).(*ast.Ident)
			if !ok || !freshAlloc(unparen(as.Rhs[i])) {
				continue
			}
			obj := p.Info.Defs[id]
			if obj == nil {
				obj = p.Info.Uses[id]
			}
			if obj != nil {
				fresh[obj] = true
			}
		}
		return true
	})
	if len(fresh) == 0 {
		return fresh
	}
	for obj := range escapedObjects(p, body, fresh) {
		delete(fresh, obj)
	}
	return fresh
}

func freshAlloc(e ast.Expr) bool {
	switch v := e.(type) {
	case *ast.CompositeLit:
		return true
	case *ast.UnaryExpr:
		if v.Op == token.AND {
			_, ok := unparen(v.X).(*ast.CompositeLit)
			return ok
		}
	case *ast.CallExpr:
		if id, ok := unparen(v.Fun).(*ast.Ident); ok && id.Name == "new" {
			return true
		}
	}
	return false
}

// moduleLockFlows runs the lockset scan over every function in the graph.
func moduleLockFlows(mp *ModulePass, track map[*types.Var]bool) map[*FuncNode]*funcLockFlow {
	flows := make(map[*FuncNode]*funcLockFlow)
	for _, n := range mp.Graph.Nodes {
		if n.Pkg == nil || n.Body() == nil {
			continue
		}
		if fl := scanLockFlow(mp.passFor(n.Pkg), n, track); fl != nil {
			flows[n] = fl
		}
	}
	return flows
}

// entryLocksets propagates held locksets through the call graph: a
// function's entry lockset is the intersection, over its call sites, of
// each caller's entry set union the locks held at the call. Go edges
// contribute the empty set (a spawned goroutine starts with no caller
// locks — holding a lock across `go` does not protect the spawned body),
// and roots (no in-edges) start empty. The fixpoint is decreasing: a set
// only shrinks as more callers resolve, so termination is immediate.
func entryLocksets(g *CallGraph, flows map[*FuncNode]*funcLockFlow) map[*FuncNode]map[string]bool {
	entry := make(map[*FuncNode]map[string]bool)
	resolved := make(map[*FuncNode]bool)
	for changed := true; changed; {
		changed = false
		for _, n := range g.Nodes {
			if n == g.Unknown {
				continue
			}
			var acc map[string]bool
			any := false
			if len(n.In) == 0 {
				acc, any = map[string]bool{}, true
			}
			for _, e := range n.In {
				var contrib map[string]bool
				switch {
				case e.Go:
					contrib = map[string]bool{}
				case !resolved[e.Caller]:
					continue
				default:
					var held map[string]bool
					if fl := flows[e.Caller]; fl != nil {
						held = fl.callHeld[e.Pos]
					}
					contrib = unionSet(copySet(entry[e.Caller]), held)
				}
				if !any {
					acc, any = copySet(contrib), true
				} else {
					acc = intersectSet(acc, contrib)
				}
			}
			if !any {
				continue
			}
			if !resolved[n] || !sameSet(entry[n], acc) {
				entry[n], resolved[n] = acc, true
				changed = true
			}
		}
	}
	return entry
}

func unionSet(a, b map[string]bool) map[string]bool {
	if len(b) == 0 {
		return a
	}
	if a == nil {
		a = make(map[string]bool, len(b))
	}
	for k := range b {
		a[k] = true
	}
	return a
}

func copySet(a map[string]bool) map[string]bool {
	if a == nil {
		return nil
	}
	out := make(map[string]bool, len(a))
	for k := range a {
		out[k] = true
	}
	return out
}

func intersectSet(a, b map[string]bool) map[string]bool {
	for k := range a {
		if !b[k] {
			delete(a, k)
		}
	}
	return a
}

func sameSet(a, b map[string]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}

func intersects(a, b map[string]bool) bool {
	for k := range a {
		if b[k] {
			return true
		}
	}
	return false
}

func sortedSetKeys(a map[string]bool) []string {
	out := make([]string, 0, len(a))
	for k := range a {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
