package vslint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// HotpathAlloc flags allocation and boxing constructs inside functions
// annotated with a //vs:hotpath doc-comment line. The annotated functions
// are VertexSurge's measured kernels (VExpand's or_column loops,
// MIntersect's intersec_col, the stacked-column primitives); one stray
// allocation or interface conversion there changes what Figure 9 measures.
var HotpathAlloc = &Analyzer{
	Name: "hotpath-alloc",
	Doc:  "flag allocations, append growth, closures, and interface conversions in //vs:hotpath functions",
	Run:  runHotpathAlloc,
}

func runHotpathAlloc(p *Pass) {
	for _, f := range p.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !hasDirective(fd.Doc, hotpathDirective) {
				continue
			}
			forEachAlloc(p, fd, func(pos token.Pos, what string) bool {
				p.Reportf(pos, "%s in hot path", what)
				return true
			})
		}
	}
}

// forEachAlloc is the one decision of whether a function body may
// allocate: it calls report with every allocating or boxing construct in
// fn's body (fn is a *ast.FuncDecl or *ast.FuncLit) until report returns
// false. hotpath-alloc reports them all; the summaries keep the first as
// the may-allocate witness hotpath-closure checks. A nested func literal is
// reported as a closure and not entered: its body is its own call-graph
// node.
func forEachAlloc(p *Pass, fn ast.Node, report func(pos token.Pos, what string) bool) {
	var body *ast.BlockStmt
	var sig *types.Signature
	switch fn := fn.(type) {
	case *ast.FuncDecl:
		body = fn.Body
		if obj, ok := p.Info.Defs[fn.Name].(*types.Func); ok {
			sig, _ = obj.Type().(*types.Signature)
		}
	case *ast.FuncLit:
		body = fn.Body
		sig, _ = p.typeOf(fn).(*types.Signature)
	}
	if body == nil {
		return
	}
	stopped := false
	emit := func(pos token.Pos, format string, args ...any) {
		if !stopped && !report(pos, fmt.Sprintf(format, args...)) {
			stopped = true
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		if stopped {
			return false
		}
		switch n := n.(type) {
		case *ast.FuncLit:
			emit(n.Pos(), "closure (func literal) allocates")
			return false
		case *ast.CallExpr:
			allocCall(p, n, emit)
		case *ast.CompositeLit:
			emit(n.Pos(), "composite literal allocates")
		case *ast.GoStmt:
			emit(n.Pos(), "goroutine launch")
		case *ast.BinaryExpr:
			if n.Op == token.ADD {
				if t := p.typeOf(n); t != nil && isStringType(t) {
					emit(n.Pos(), "string concatenation allocates")
				}
			}
		case *ast.AssignStmt:
			allocAssign(p, n, emit)
		case *ast.ValueSpec:
			allocValueSpec(p, n, emit)
		case *ast.ReturnStmt:
			allocReturn(p, sig, n, emit)
		}
		return true
	})
}

// allocEmit receives one allocation finding from the forEachAlloc helpers.
type allocEmit func(pos token.Pos, format string, args ...any)

// allocCall reports allocating builtins, allocating conversions, and
// implicit concrete-to-interface conversions at call boundaries.
func allocCall(p *Pass, call *ast.CallExpr, emit allocEmit) {
	// Conversion T(x): boxing and string<->slice copies.
	if tv, ok := p.Info.Types[unparen(call.Fun)]; ok && tv.IsType() {
		if len(call.Args) != 1 {
			return
		}
		dst := tv.Type
		src := p.typeOf(call.Args[0])
		if src == nil {
			return
		}
		switch {
		case types.IsInterface(dst) && !types.IsInterface(src) && !isUntypedNil(p, call.Args[0]):
			emit(call.Pos(), "conversion of %s to interface %s allocates", src, dst)
		case isStringType(dst) && isByteOrRuneSlice(src),
			isByteOrRuneSlice(dst) && isStringType(src):
			emit(call.Pos(), "string/slice conversion %s -> %s copies", src, dst)
		}
		return
	}

	// Allocating builtins.
	if id, ok := unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := p.Info.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "make":
				emit(call.Pos(), "make allocates")
			case "new":
				emit(call.Pos(), "new allocates")
			case "append":
				emit(call.Pos(), "append may grow its backing array")
			}
			return
		}
	}

	// Implicit interface conversions of call arguments.
	t := p.typeOf(call.Fun)
	if t == nil {
		return
	}
	sig, ok := t.Underlying().(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis.IsValid() {
				continue // slice passed through, no per-element boxing
			}
			pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		}
		if pt == nil || !types.IsInterface(pt) {
			continue
		}
		at := p.typeOf(arg)
		if at == nil || types.IsInterface(at) || isUntypedNil(p, arg) {
			continue
		}
		emit(arg.Pos(), "implicit conversion of %s to interface parameter allocates", at)
	}
}

// allocAssign reports concrete-to-interface conversions on plain
// assignments (x = v where x has interface type).
func allocAssign(p *Pass, as *ast.AssignStmt, emit allocEmit) {
	if as.Tok != token.ASSIGN || len(as.Lhs) != len(as.Rhs) {
		return // := never converts; multi-value rhs handled at the call site
	}
	for i, lhs := range as.Lhs {
		if id, ok := lhs.(*ast.Ident); ok && id.Name == "_" {
			continue
		}
		lt := p.typeOf(lhs)
		rt := p.typeOf(as.Rhs[i])
		if lt == nil || rt == nil {
			continue
		}
		if types.IsInterface(lt) && !types.IsInterface(rt) && !isUntypedNil(p, as.Rhs[i]) {
			emit(as.Rhs[i].Pos(), "assignment converts %s to interface %s", rt, lt)
		}
	}
}

// allocValueSpec reports var declarations with an explicit interface type
// initialized from concrete values.
func allocValueSpec(p *Pass, vs *ast.ValueSpec, emit allocEmit) {
	if vs.Type == nil {
		return
	}
	lt := p.typeOf(vs.Type)
	if lt == nil || !types.IsInterface(lt) {
		return
	}
	for _, v := range vs.Values {
		rt := p.typeOf(v)
		if rt != nil && !types.IsInterface(rt) && !isUntypedNil(p, v) {
			emit(v.Pos(), "var declaration converts %s to interface %s", rt, lt)
		}
	}
}

// allocReturn reports concrete values returned through interface results.
func allocReturn(p *Pass, sig *types.Signature, ret *ast.ReturnStmt, emit allocEmit) {
	if sig == nil {
		return
	}
	results := sig.Results()
	if results.Len() != len(ret.Results) {
		return // bare return or tuple-forwarding call
	}
	for i, r := range ret.Results {
		rt := p.typeOf(r)
		if rt == nil {
			continue
		}
		lt := results.At(i).Type()
		if types.IsInterface(lt) && !types.IsInterface(rt) && !isUntypedNil(p, r) {
			emit(r.Pos(), "return converts %s to interface %s", rt, lt)
		}
	}
}

func unparen(e ast.Expr) ast.Expr {
	for {
		pe, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = pe.X
	}
}

func isUntypedNil(p *Pass, e ast.Expr) bool {
	tv, ok := p.Info.Types[e]
	return ok && tv.IsNil()
}

func isStringType(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteOrRuneSlice(t types.Type) bool {
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Byte || b.Kind() == types.Rune)
}
