package vslint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// CtxPropagation enforces the QueryContext threading discipline the
// executor depends on: cancellation must flow from the server deadline
// through every operator into the kernels.
//
//   - A context.Context must not be stored in a struct field; it is passed
//     as a parameter so each call sees the caller's deadline. The one
//     sanctioned carrier (exec.QueryContext) carries a justified
//     //vs:nolint.
//   - A function that already receives a Context (directly or via a
//     carrier struct such as *QueryContext) must not call
//     context.Background or context.TODO: that silently detaches the work
//     from the caller's cancellation.
//
// Spawns and detaches in functions without a Context are CtxChains' job,
// which reports them only when a caller had a context to thread.
var CtxPropagation = &Analyzer{
	Name: "ctx-propagation",
	Doc:  "context.Context must be threaded through parameters, never stored in fields or replaced by Background/TODO",
	Run:  runCtxPropagation,
}

func runCtxPropagation(p *Pass) {
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			st, ok := n.(*ast.StructType)
			if !ok {
				return true
			}
			for _, field := range st.Fields.List {
				if isContextType(p.typeOf(field.Type)) {
					p.Reportf(field.Pos(), "context.Context stored in a struct field: pass it as a parameter so callees see the caller's deadline")
				}
			}
			return true
		})
	}

	forEachFuncDecl(p, func(fd *ast.FuncDecl) {
		if !hasContextCarrier(p, fd) {
			return
		}
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if name, ok := contextPackageCall(p, call); ok && (name == "Background" || name == "TODO") {
				p.Reportf(call.Pos(), "%s receives a Context but calls context.%s, detaching this work from the caller's cancellation", fd.Name.Name, name)
			}
			return true
		})
	})
}

// CtxChains reports under ctx-propagation's name. It walks the call graph
// backwards from each context-less function that spawns a goroutine or
// calls context.Background/TODO to the nearest caller that does receive a
// Context (or carrier), and reports the exact call path along which the
// context was dropped. Chains rooted only at main (or at nothing) stay
// silent: there was no context to lose.
var CtxChains = &ModuleAnalyzer{
	Name: CtxPropagation.Name,
	Doc:  "report the interprocedural call path along which a context was dropped before a goroutine spawn or Background detach",
	Run:  runCtxChains,
}

func runCtxChains(mp *ModulePass) {
	for _, n := range mp.Graph.Nodes {
		sum := mp.Sums.Of(n)
		if sum.HasCtx || (len(sum.Spawns) == 0 && len(sum.Detaches) == 0) {
			continue
		}
		if n.Decl != nil && n.Decl.Name.Name == "main" && n.Pkg != nil && n.Pkg.Types.Name() == "main" {
			continue
		}
		path, approx := carrierPath(mp, n)
		if path == nil {
			continue // no caller had a context; nothing was lost
		}
		chain := strings.Join(path, " → ")
		for _, pos := range sum.Spawns {
			mp.reportAt(pos, approx,
				"%s spawns a goroutine without a context.Context, but its caller chain had one to thread: %s",
				n.Name, chain)
		}
		for _, pos := range sum.Detaches {
			mp.reportAt(pos, approx,
				"%s calls context.Background/TODO without receiving a Context, but its caller chain had one to thread: %s",
				n.Name, chain)
		}
	}
}

// carrierPath finds the shortest caller chain from a context-carrying
// function down to n, walking precise edges first. It returns the chain
// (carrier first, n last) or nil, plus whether any traversed edge was a
// conservative dispatch guess.
func carrierPath(mp *ModulePass, n *FuncNode) ([]string, bool) {
	type item struct {
		node   *FuncNode
		approx bool
	}
	prev := map[*FuncNode]*FuncNode{}
	visited := map[*FuncNode]bool{n: true}
	queue := []item{{node: n}}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, e := range cur.node.In {
			caller := e.Caller
			if visited[caller] || e.Kind == EdgeUnknown {
				continue
			}
			visited[caller] = true
			prev[caller] = cur.node
			approx := cur.approx || e.Kind.Approx()
			if mp.Sums.Of(caller).HasCtx {
				var path []string
				for p := caller; p != nil; p = prev[p] {
					path = append(path, p.Name)
				}
				return path, approx
			}
			queue = append(queue, item{node: caller, approx: approx})
		}
	}
	return nil, false
}

// reportAt mirrors ModulePass.Reportf for an already-resolved position.
func (mp *ModulePass) reportAt(pos token.Position, approx bool, format string, args ...any) {
	sev := SeverityError
	if approx {
		sev = SeverityInfo
	}
	mp.report(Finding{
		Analyzer: mp.analyzer,
		Pos:      pos,
		Message:  fmt.Sprintf(format, args...),
		Severity: sev,
		Approx:   approx,
	})
}

// hasContextCarrier reports whether fd receives a context.Context or a
// carrier type — a (pointer to) named struct with a Context field — via
// its receiver or parameters.
func hasContextCarrier(p *Pass, fd *ast.FuncDecl) bool {
	check := func(fl *ast.FieldList) bool {
		if fl == nil {
			return false
		}
		for _, f := range fl.List {
			t := p.typeOf(f.Type)
			if isContextType(t) || carriesContextField(t) {
				return true
			}
		}
		return false
	}
	return check(fd.Recv) || check(fd.Type.Params)
}

// isContextType reports whether t is context.Context.
func isContextType(t types.Type) bool {
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == "Context"
}

// carriesContextField reports whether t (possibly behind a pointer) is a
// named struct holding a context.Context field, e.g. *exec.QueryContext.
func carriesContextField(t types.Type) bool {
	if t == nil {
		return false
	}
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	st, ok := n.Underlying().(*types.Struct)
	if !ok {
		return false
	}
	for i := 0; i < st.NumFields(); i++ {
		if isContextType(st.Field(i).Type()) {
			return true
		}
	}
	return false
}

// contextPackageCall matches a call of the form context.<Name>(...) and
// returns the function name.
func contextPackageCall(p *Pass, call *ast.CallExpr) (string, bool) {
	sel, ok := unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	id, ok := unparen(sel.X).(*ast.Ident)
	if !ok {
		return "", false
	}
	pkg, ok := p.Info.Uses[id].(*types.PkgName)
	if !ok || pkg.Imported().Path() != "context" {
		return "", false
	}
	return sel.Sel.Name, true
}
