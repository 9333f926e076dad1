package vslint

import (
	"fmt"
	"go/ast"
	"strings"
)

// SpanLeak verifies that every telemetry span acquired in a function
// reaches End() on every control-flow path. A span left open corrupts the
// trace tree (children attach to a phantom parent) and leaks the slot in
// the bounded trace buffer.
//
// An acquisition is an assignment binding a *Span result of a call whose
// name starts with "Start" or "New" (telemetry.StartSpan, NewTrace);
// borrowing accessors such as CurrentSpan are not acquisitions. A span
// handle that escapes — passed to a helper, returned, captured by a
// closure — transfers the End obligation with it and stops being tracked.
var SpanLeak = &Analyzer{
	Name: "span-leak",
	Doc:  "spans acquired via StartSpan/NewTrace must reach End() on all paths",
	Run:  runSpanLeak,
}

func runSpanLeak(p *Pass) {
	spec := &pairSpec{
		handleBased: true,
		classify:    classifySpan,
		leakMsg: func(s *acqSite) string {
			return fmt.Sprintf("%s may not reach End() on every path (early return or panic leaves it open)", s.desc)
		},
	}
	forEachFuncDecl(p, func(fd *ast.FuncDecl) { runPairing(p, fd, spec) })
}

func classifySpan(p *Pass, n ast.Node, deferred bool, emit func(event)) {
	inspectNode(n, func(sub ast.Node) bool {
		switch sub := sub.(type) {
		case *ast.FuncLit:
			return false
		case *ast.AssignStmt:
			if deferred || len(sub.Rhs) != 1 {
				return true
			}
			call, ok := unparen(sub.Rhs[0]).(*ast.CallExpr)
			if !ok {
				return true
			}
			name := calleeName(call)
			if !strings.HasPrefix(name, "Start") && !strings.HasPrefix(name, "New") {
				return true
			}
			for _, lhs := range sub.Lhs {
				id, ok := unparen(lhs).(*ast.Ident)
				if !ok || id.Name == "_" {
					continue
				}
				obj := p.Info.Defs[id]
				if obj == nil {
					obj = p.Info.Uses[id]
				}
				if obj == nil || namedTypeName(obj.Type()) != "Span" {
					continue
				}
				emit(event{
					acquire: true,
					pos:     call.Pos(),
					site:    &acqSite{obj: obj, desc: fmt.Sprintf("span %q from %s", id.Name, name)},
				})
			}
		case *ast.CallExpr:
			sel, ok := unparen(sub.Fun).(*ast.SelectorExpr)
			if !ok || sel.Sel.Name != "End" {
				return true
			}
			id, ok := unparen(sel.X).(*ast.Ident)
			if !ok {
				return true
			}
			if obj := p.Info.Uses[id]; obj != nil && namedTypeName(obj.Type()) == "Span" {
				emit(event{acquire: false, pos: sub.Pos(), obj: obj})
			}
		}
		return true
	})
}
