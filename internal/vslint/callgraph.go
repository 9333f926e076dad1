package vslint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// This file builds the whole-program call graph the interprocedural
// analyzers (lock-order, hotpath-closure) are computed over.
// Nodes are the module's function declarations plus every function literal
// (closures are callees in their own right: a callback stored in a field
// runs in whatever function invokes the field, not in the function that
// defined it).
//
// Callee resolution, from precise to conservative:
//
//   - EdgeStatic: direct calls of package-level functions and method calls
//     whose receiver has a static concrete type.
//   - EdgeField: calls through a func-typed struct field (a.OnPressure(n)).
//     Candidates are every function value the module ever stores into that
//     exact field object — assignments and keyed composite literals.
//   - EdgeIface: interface method dispatch. Candidates are the same-named
//     method of every module type that implements the interface. Marked
//     approximate: findings that depend on such an edge are demoted to
//     info severity so a conservative guess never hard-fails CI.
//   - EdgeSig: calls through plain func-typed variables or parameters.
//     Candidates are every module function or literal used as a value
//     whose signature is identical. Approximate, like EdgeIface.
//   - EdgeUnknown: anything else (call of a call result, indexed function
//     tables) targets the single Unknown node, which the analyzers treat
//     as "no information" — see the soundness caveats in DESIGN.md.
//
// Calls into other modules (the stdlib) are not represented: the analyzers
// assume external code does not call back into this module except through
// function values the graph already tracks.

// EdgeKind classifies how a call edge's callee was resolved.
type EdgeKind uint8

const (
	EdgeStatic EdgeKind = iota
	EdgeField
	EdgeIface
	EdgeSig
	EdgeUnknown
)

func (k EdgeKind) String() string {
	switch k {
	case EdgeStatic:
		return "static"
	case EdgeField:
		return "field"
	case EdgeIface:
		return "iface"
	case EdgeSig:
		return "sig"
	default:
		return "unknown"
	}
}

// Approx reports whether the edge kind is a conservative guess rather than
// a resolution the type system guarantees.
func (k EdgeKind) Approx() bool { return k == EdgeIface || k == EdgeSig || k == EdgeUnknown }

// CallEdge is one may-call relation.
type CallEdge struct {
	Caller *FuncNode
	Callee *FuncNode
	Pos    token.Pos
	Kind   EdgeKind
	// Go marks a call spawned with a go statement.
	Go bool
}

// FuncNode is one function in the call graph: a declaration, a function
// literal, or the synthetic Unknown callee.
type FuncNode struct {
	ID int
	// Name is the import-path-qualified display name, e.g.
	// "repro/internal/exec.(*MatrixCache).Get" or "repro/internal/engine.New.func1".
	Name string
	Pkg  *Package      // nil for Unknown
	Decl *ast.FuncDecl // nil for literals and Unknown
	Lit  *ast.FuncLit  // nil for declarations and Unknown
	Obj  *types.Func   // nil for literals and Unknown

	Hotpath  bool // //vs:hotpath
	Coldpath bool // //vs:coldpath
	Noinline bool // //go:noinline

	Out []*CallEdge
	In  []*CallEdge

	// SCC is the node's strongly-connected-component index; components are
	// numbered bottom-up (every callee outside the component has a smaller
	// index).
	SCC int
}

// Body returns the node's function body, or nil.
func (n *FuncNode) Body() *ast.BlockStmt {
	switch {
	case n.Decl != nil:
		return n.Decl.Body
	case n.Lit != nil:
		return n.Lit.Body
	}
	return nil
}

// Pos returns the node's declaration position.
func (n *FuncNode) Pos() token.Pos {
	switch {
	case n.Decl != nil:
		return n.Decl.Pos()
	case n.Lit != nil:
		return n.Lit.Pos()
	}
	return token.NoPos
}

// CallGraph is the module-wide call graph.
type CallGraph struct {
	Mod     *Module
	Nodes   []*FuncNode
	Unknown *FuncNode

	// SCCs lists strongly connected components bottom-up: every edge out
	// of SCCs[i] that leaves the component lands in some SCCs[j] with j<i.
	SCCs [][]*FuncNode

	byObj  map[*types.Func]*FuncNode
	byLit  map[*ast.FuncLit]*FuncNode
	byName map[string]*FuncNode
}

// NodeByObj returns the node of a declared function, or nil.
func (g *CallGraph) NodeByObj(obj *types.Func) *FuncNode { return g.byObj[obj] }

// NodeByName returns the node with the given qualified display name, or nil.
func (g *CallGraph) NodeByName(name string) *FuncNode { return g.byName[name] }

const coldpathDirective = "vs:coldpath"

// BuildCallGraph constructs the call graph over every package of mod.
func BuildCallGraph(mod *Module) *CallGraph {
	g := &CallGraph{
		Mod:    mod,
		byObj:  map[*types.Func]*FuncNode{},
		byLit:  map[*ast.FuncLit]*FuncNode{},
		byName: map[string]*FuncNode{},
	}
	g.Unknown = g.addNode(&FuncNode{Name: "<unknown>"})

	b := &graphBuilder{g: g, fieldFuncs: map[*types.Var][]*FuncNode{}, sigFuncs: map[string][]*FuncNode{}}
	// Pass 1: declaration nodes (literal nodes are added while walking
	// bodies, before any edge can target them — candidates are collected
	// in pass 2, edges in pass 3).
	for _, pkg := range mod.Pkgs {
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok {
					continue
				}
				obj, _ := pkg.Info.Defs[fd.Name].(*types.Func)
				n := g.addNode(&FuncNode{
					Name:     pkg.ImportPath + "." + funcDisplayName(fd),
					Pkg:      pkg,
					Decl:     fd,
					Obj:      obj,
					Hotpath:  hasDirective(fd.Doc, hotpathDirective),
					Coldpath: hasDirective(fd.Doc, coldpathDirective),
					Noinline: hasDirective(fd.Doc, "go:noinline"),
				})
				if obj != nil {
					g.byObj[obj] = n
				}
				b.addLitNodes(n)
			}
		}
	}
	// Pass 2: dynamic-dispatch candidate indexes (field stores, functions
	// used as values, interface implementations).
	b.collectCandidates()
	// Pass 3: edges.
	for _, n := range g.Nodes {
		if n.Decl != nil {
			b.addEdges(n, n.Decl.Body)
		} else if n.Lit != nil {
			b.addEdges(n, n.Lit.Body)
		}
	}
	g.computeSCCs()
	return g
}

func (g *CallGraph) addNode(n *FuncNode) *FuncNode {
	n.ID = len(g.Nodes)
	g.Nodes = append(g.Nodes, n)
	if n.Name != "" {
		g.byName[n.Name] = n
	}
	return n
}

type graphBuilder struct {
	g *CallGraph
	// fieldFuncs maps a func-typed struct field object to every function
	// value the module stores into it.
	fieldFuncs map[*types.Var][]*FuncNode
	// sigFuncs maps a signature string to every function or literal used
	// as a value with that signature.
	sigFuncs map[string][]*FuncNode
	// methods maps a method name to every declared method node, for
	// interface-dispatch candidate search.
	methods map[string][]*FuncNode
}

// addLitNodes registers a node for every function literal inside parent's
// body, named parent.funcN in depth-first source order.
func (b *graphBuilder) addLitNodes(parent *FuncNode) {
	if parent.Decl == nil || parent.Decl.Body == nil {
		return
	}
	n := 0
	ast.Inspect(parent.Decl.Body, func(node ast.Node) bool {
		lit, ok := node.(*ast.FuncLit)
		if !ok {
			return true
		}
		n++
		ln := b.g.addNode(&FuncNode{
			Name: fmt.Sprintf("%s.func%d", parent.Name, n),
			Pkg:  parent.Pkg,
			Lit:  lit,
			// Literals inherit the enclosing declaration's hotpath/coldpath
			// markers: a closure defined in a cold helper is cold.
			Coldpath: parent.Coldpath,
			Noinline: parent.Noinline,
		})
		b.g.byLit[lit] = ln
		return true
	})
}

// collectCandidates builds the dynamic-dispatch indexes.
func (b *graphBuilder) collectCandidates() {
	b.methods = map[string][]*FuncNode{}
	for _, n := range b.g.Nodes {
		if n.Decl != nil && n.Decl.Recv != nil && len(n.Decl.Recv.List) > 0 {
			b.methods[n.Decl.Name.Name] = append(b.methods[n.Decl.Name.Name], n)
		}
	}
	for _, pkg := range b.g.Mod.Pkgs {
		for _, f := range pkg.Files {
			b.collectFileCandidates(pkg, f)
		}
	}
}

func (b *graphBuilder) collectFileCandidates(pkg *Package, f *ast.File) {
	var stack []ast.Node
	ast.Inspect(f, func(node ast.Node) bool {
		if node == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		switch node := node.(type) {
		case *ast.AssignStmt:
			for i, lhs := range node.Lhs {
				if i >= len(node.Rhs) {
					break
				}
				sel, ok := unparen(lhs).(*ast.SelectorExpr)
				if !ok {
					continue
				}
				field := fieldObject(pkg, sel)
				if field == nil {
					continue
				}
				if fn := b.resolveFuncExpr(pkg, node.Rhs[i]); fn != nil {
					b.fieldFuncs[field] = append(b.fieldFuncs[field], fn)
				}
			}
		case *ast.CompositeLit:
			for _, el := range node.Elts {
				kv, ok := el.(*ast.KeyValueExpr)
				if !ok {
					continue
				}
				key, ok := kv.Key.(*ast.Ident)
				if !ok {
					continue
				}
				field, _ := pkg.Info.Uses[key].(*types.Var)
				if field == nil || !field.IsField() {
					continue
				}
				if fn := b.resolveFuncExpr(pkg, kv.Value); fn != nil {
					b.fieldFuncs[field] = append(b.fieldFuncs[field], fn)
				}
			}
		case *ast.Ident:
			// A declared function referenced outside call position is a
			// value: it may flow anywhere a matching signature is invoked.
			if obj, ok := pkg.Info.Uses[node].(*types.Func); ok {
				if fn := b.g.byObj[obj.Origin()]; fn != nil && !isCallPosition(stack, node) {
					b.addSigCandidate(fn)
				}
			}
		case *ast.FuncLit:
			if fn := b.g.byLit[node]; fn != nil && !isCallPosition(stack, node) {
				b.addSigCandidate(fn)
			}
		}
		stack = append(stack, node)
		return true
	})
}

func (b *graphBuilder) addSigCandidate(fn *FuncNode) {
	key := b.sigKey(fn)
	if key == "" {
		return
	}
	for _, existing := range b.sigFuncs[key] {
		if existing == fn {
			return
		}
	}
	b.sigFuncs[key] = append(b.sigFuncs[key], fn)
}

// sigKey renders a node's signature (receivers excluded: a method value
// has its receiver bound) for value-candidate matching.
func (b *graphBuilder) sigKey(fn *FuncNode) string {
	var sig *types.Signature
	switch {
	case fn.Obj != nil:
		sig, _ = fn.Obj.Type().(*types.Signature)
	case fn.Lit != nil && fn.Pkg != nil:
		if tv, ok := fn.Pkg.Info.Types[fn.Lit]; ok {
			sig, _ = tv.Type.(*types.Signature)
		}
	}
	if sig == nil {
		return ""
	}
	// Drop the receiver: a bound method value is invoked with the
	// remaining parameters only.
	sig = types.NewSignatureType(nil, nil, nil, sig.Params(), sig.Results(), sig.Variadic())
	return types.TypeString(sig, nil)
}

// resolveFuncExpr resolves an expression to the function node it denotes:
// a function identifier, a bound method value, or a function literal.
func (b *graphBuilder) resolveFuncExpr(pkg *Package, e ast.Expr) *FuncNode {
	switch e := unparen(e).(type) {
	case *ast.Ident:
		if obj, ok := pkg.Info.Uses[e].(*types.Func); ok {
			return b.g.byObj[obj.Origin()]
		}
	case *ast.SelectorExpr:
		if sel, ok := pkg.Info.Selections[e]; ok && sel.Kind() == types.MethodVal {
			if obj, ok := sel.Obj().(*types.Func); ok {
				return b.g.byObj[obj.Origin()]
			}
		}
		// pkgname.Func
		if obj, ok := pkg.Info.Uses[e.Sel].(*types.Func); ok {
			return b.g.byObj[obj.Origin()]
		}
	case *ast.FuncLit:
		return b.g.byLit[e]
	}
	return nil
}

// fieldObject resolves sel to the struct field it denotes, or nil.
func fieldObject(pkg *Package, sel *ast.SelectorExpr) *types.Var {
	if s, ok := pkg.Info.Selections[sel]; ok && s.Kind() == types.FieldVal {
		if v, ok := s.Obj().(*types.Var); ok {
			return v
		}
	}
	if v, ok := pkg.Info.Uses[sel.Sel].(*types.Var); ok && v.IsField() {
		return v
	}
	return nil
}

// isCallPosition reports whether id is the function operand of a call
// expression (stack holds ancestors, nearest last).
func isCallPosition(stack []ast.Node, id ast.Node) bool {
	cur := id
	for i := len(stack) - 1; i >= 0; i-- {
		switch parent := stack[i].(type) {
		case *ast.ParenExpr:
			cur = parent
			continue
		case *ast.SelectorExpr:
			// method value position: x.M — M itself is not the call fun,
			// the selector is; keep climbing.
			if parent.Sel == cur || parent.X == cur {
				cur = parent
				continue
			}
			return false
		case *ast.CallExpr:
			return parent.Fun == cur
		default:
			return false
		}
	}
	return false
}

// addEdges walks one node's body and records every call. Function literal
// bodies are skipped: they belong to their own nodes.
func (b *graphBuilder) addEdges(caller *FuncNode, body *ast.BlockStmt) {
	if body == nil {
		return
	}
	var walk func(n ast.Node, inGo bool)
	walk = func(n ast.Node, inGo bool) {
		ast.Inspect(n, func(sub ast.Node) bool {
			switch sub := sub.(type) {
			case *ast.FuncLit:
				if sub != n {
					return false
				}
			case *ast.GoStmt:
				// The spawned call itself is a go-edge; its arguments are
				// evaluated synchronously in the caller.
				b.callEdge(caller, sub.Call, true)
				for _, arg := range sub.Call.Args {
					walk(arg, false)
				}
				if lit, ok := unparen(sub.Call.Fun).(*ast.FuncLit); ok {
					_ = lit // body handled by the literal's own node
				} else {
					walk(sub.Call.Fun, false)
				}
				return false
			case *ast.CallExpr:
				b.callEdge(caller, sub, inGo)
			}
			return true
		})
	}
	walk(body, false)
}

// unwrapInstantiation peels the type-argument index off an explicitly
// instantiated generic call target (f[int], pkg.Map[K, V]) so the callee
// resolves statically. Only operands that name a function are unwrapped:
// value indexing like handlers[i]() keeps its index and stays on the
// conservative paths.
func unwrapInstantiation(pkg *Package, fun ast.Expr) ast.Expr {
	var x ast.Expr
	switch idx := fun.(type) {
	case *ast.IndexExpr:
		x = unparen(idx.X)
	case *ast.IndexListExpr:
		x = unparen(idx.X)
	default:
		return fun
	}
	switch op := x.(type) {
	case *ast.Ident:
		if _, ok := pkg.Info.Uses[op].(*types.Func); ok {
			return x
		}
	case *ast.SelectorExpr:
		if _, ok := pkg.Info.Uses[op.Sel].(*types.Func); ok {
			return x
		}
	}
	return fun
}

// callEdge classifies one call expression and records the edge(s).
func (b *graphBuilder) callEdge(caller *FuncNode, call *ast.CallExpr, isGo bool) {
	pkg := caller.Pkg
	fun := unparen(call.Fun)

	// Conversions are not calls.
	if tv, ok := pkg.Info.Types[fun]; ok && tv.IsType() {
		return
	}

	// Explicit instantiation (f[int](x), pkg.Map[K, V](m)): peel the
	// type-argument index so the callee resolves statically instead of
	// falling through to the unknown node.
	fun = unwrapInstantiation(pkg, fun)

	switch fun := fun.(type) {
	case *ast.Ident:
		switch obj := pkg.Info.Uses[fun].(type) {
		case *types.Builtin:
			return
		case *types.Func:
			b.edgeTo(caller, b.g.byObj[obj.Origin()], call.Pos(), EdgeStatic, isGo)
			return
		case *types.Var:
			// Plain func-typed variable or parameter: signature candidates.
			b.sigEdges(caller, call, obj.Type(), isGo)
			return
		case *types.Nil:
			return
		}
	case *ast.SelectorExpr:
		if sel, ok := pkg.Info.Selections[fun]; ok {
			switch sel.Kind() {
			case types.MethodVal, types.MethodExpr:
				obj, _ := sel.Obj().(*types.Func)
				if obj == nil {
					break
				}
				if types.IsInterface(sel.Recv()) {
					b.ifaceEdges(caller, call, sel.Recv(), obj.Name(), isGo)
					return
				}
				// Methods on instantiated generic receivers resolve to the
				// instantiated object; the graph node is the declared one.
				b.edgeTo(caller, b.g.byObj[obj.Origin()], call.Pos(), EdgeStatic, isGo)
				return
			case types.FieldVal:
				if field, ok := sel.Obj().(*types.Var); ok {
					b.fieldEdges(caller, call, field, isGo)
					return
				}
			}
		}
		// pkgname.Func or interface-typed package var.
		switch obj := pkg.Info.Uses[fun.Sel].(type) {
		case *types.Func:
			b.edgeTo(caller, b.g.byObj[obj.Origin()], call.Pos(), EdgeStatic, isGo)
			return
		case *types.Var:
			if obj.IsField() {
				b.fieldEdges(caller, call, obj, isGo)
			} else {
				b.sigEdges(caller, call, obj.Type(), isGo)
			}
			return
		}
	case *ast.FuncLit:
		// Immediately-invoked literal.
		b.edgeTo(caller, b.g.byLit[fun], call.Pos(), EdgeStatic, isGo)
		return
	}
	b.edgeTo(caller, b.g.Unknown, call.Pos(), EdgeUnknown, isGo)
}

// fieldEdges records edges to every function value stored into field, or
// to Unknown when the module never stores one.
func (b *graphBuilder) fieldEdges(caller *FuncNode, call *ast.CallExpr, field *types.Var, isGo bool) {
	cands := b.fieldFuncs[field]
	if len(cands) == 0 {
		b.edgeTo(caller, b.g.Unknown, call.Pos(), EdgeField, isGo)
		return
	}
	for _, c := range cands {
		b.edgeTo(caller, c, call.Pos(), EdgeField, isGo)
	}
}

// ifaceEdges records edges to the same-named method of every module type
// implementing the interface.
func (b *graphBuilder) ifaceEdges(caller *FuncNode, call *ast.CallExpr, iface types.Type, method string, isGo bool) {
	found := false
	for _, cand := range b.methods[method] {
		if cand.Obj == nil {
			continue
		}
		sig, ok := cand.Obj.Type().(*types.Signature)
		if !ok || sig.Recv() == nil {
			continue
		}
		recv := sig.Recv()
		if types.Implements(recv.Type(), iface.Underlying().(*types.Interface)) {
			b.edgeTo(caller, cand, call.Pos(), EdgeIface, isGo)
			found = true
		}
	}
	if !found {
		b.edgeTo(caller, b.g.Unknown, call.Pos(), EdgeIface, isGo)
	}
}

// sigEdges records edges to every function value candidate with an
// identical signature.
func (b *graphBuilder) sigEdges(caller *FuncNode, call *ast.CallExpr, t types.Type, isGo bool) {
	sig, ok := t.Underlying().(*types.Signature)
	if !ok {
		b.edgeTo(caller, b.g.Unknown, call.Pos(), EdgeUnknown, isGo)
		return
	}
	key := types.TypeString(types.NewSignatureType(nil, nil, nil, sig.Params(), sig.Results(), sig.Variadic()), nil)
	cands := b.sigFuncs[key]
	if len(cands) == 0 {
		b.edgeTo(caller, b.g.Unknown, call.Pos(), EdgeSig, isGo)
		return
	}
	for _, c := range cands {
		b.edgeTo(caller, c, call.Pos(), EdgeSig, isGo)
	}
}

func (b *graphBuilder) edgeTo(caller, callee *FuncNode, pos token.Pos, kind EdgeKind, isGo bool) {
	if callee == nil {
		callee = b.g.Unknown
		if kind == EdgeStatic {
			// A statically-resolved callee without a node is a function in
			// another module (stdlib): not represented.
			return
		}
	}
	e := &CallEdge{Caller: caller, Callee: callee, Pos: pos, Kind: kind, Go: isGo}
	caller.Out = append(caller.Out, e)
	callee.In = append(callee.In, e)
}

// computeSCCs runs Tarjan's algorithm; components come out bottom-up
// (callees before callers), which is the summary computation order.
func (g *CallGraph) computeSCCs() {
	const unvisited = -1
	n := len(g.Nodes)
	index := make([]int, n)
	low := make([]int, n)
	onStack := make([]bool, n)
	for i := range index {
		index[i] = unvisited
	}
	var stack []*FuncNode
	next := 0

	// Iterative Tarjan: recursion would overflow on adversarial (fuzzed)
	// call chains.
	type frame struct {
		v    *FuncNode
		edge int
	}
	var visit func(root *FuncNode)
	visit = func(root *FuncNode) {
		frames := []frame{{v: root}}
		index[root.ID] = next
		low[root.ID] = next
		next++
		stack = append(stack, root)
		onStack[root.ID] = true
		for len(frames) > 0 {
			f := &frames[len(frames)-1]
			if f.edge < len(f.v.Out) {
				w := f.v.Out[f.edge].Callee
				f.edge++
				if index[w.ID] == unvisited {
					index[w.ID] = next
					low[w.ID] = next
					next++
					stack = append(stack, w)
					onStack[w.ID] = true
					frames = append(frames, frame{v: w})
				} else if onStack[w.ID] {
					if index[w.ID] < low[f.v.ID] {
						low[f.v.ID] = index[w.ID]
					}
				}
				continue
			}
			// f.v finished.
			if low[f.v.ID] == index[f.v.ID] {
				var comp []*FuncNode
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w.ID] = false
					w.SCC = len(g.SCCs)
					comp = append(comp, w)
					if w == f.v {
						break
					}
				}
				g.SCCs = append(g.SCCs, comp)
			}
			frames = frames[:len(frames)-1]
			if len(frames) > 0 {
				p := &frames[len(frames)-1]
				if low[f.v.ID] < low[p.v.ID] {
					low[p.v.ID] = low[f.v.ID]
				}
			}
		}
	}
	for _, v := range g.Nodes {
		if index[v.ID] == unvisited {
			visit(v)
		}
	}
}

// edgesSummary renders a node's outgoing edges compactly for tests:
// "callee1[kind] callee2[kind,go]" sorted by callee name.
func (n *FuncNode) edgesSummary() string {
	parts := make([]string, 0, len(n.Out))
	for _, e := range n.Out {
		tag := e.Kind.String()
		if e.Go {
			tag += ",go"
		}
		parts = append(parts, fmt.Sprintf("%s[%s]", e.Callee.Name, tag))
	}
	sort.Strings(parts)
	return strings.Join(parts, " ")
}
