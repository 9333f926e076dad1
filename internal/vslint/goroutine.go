package vslint

import (
	"go/ast"
	"go/types"
)

// GoroutineHygiene enforces the fan-out discipline of VExpand's and
// MIntersect's worker pools. (Loop-variable capture needs no rule: go.mod
// declares go 1.22, whose per-iteration loop variables make it correct.)
//
//   - sync.WaitGroup.Add must run in the spawning goroutine, before the go
//     statement, never inside the spawned closure (Add-after-Wait race);
//   - a function that Adds to or Dones a locally declared WaitGroup must
//     also Wait on it (a missing Wait leaks unfinished workers past the
//     barrier).
var GoroutineHygiene = &Analyzer{
	Name: "goroutine-hygiene",
	Doc:  "flag WaitGroup.Add inside the spawned goroutine and a missing Wait",
	Run:  runGoroutineHygiene,
}

func runGoroutineHygiene(p *Pass) {
	for _, f := range p.Files {
		checkWaitGroupAddPlacement(p, f)
		checkMissingWait(p, f)
	}
}

// checkWaitGroupAddPlacement flags sync.WaitGroup.Add calls inside the body
// of a go-spawned closure.
func checkWaitGroupAddPlacement(p *Pass, f *ast.File) {
	ast.Inspect(f, func(n ast.Node) bool {
		g, ok := n.(*ast.GoStmt)
		if !ok {
			return true
		}
		lit, ok := g.Call.Fun.(*ast.FuncLit)
		if !ok {
			return true
		}
		ast.Inspect(lit.Body, func(m ast.Node) bool {
			call, ok := m.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok || sel.Sel.Name != "Add" {
				return true
			}
			if recv := p.typeOf(sel.X); recv != nil && isWaitGroup(recv) {
				p.Reportf(call.Pos(), "sync.WaitGroup.Add inside the spawned goroutine races with Wait; Add before the go statement")
			}
			return true
		})
		return true
	})
}

// checkMissingWait flags functions that Add to or Done a locally declared
// WaitGroup without ever Waiting on it. WaitGroups that escape the function
// (address taken for a call, assigned away, etc.) are skipped.
func checkMissingWait(p *Pass, f *ast.File) {
	for _, d := range f.Decls {
		fd, ok := d.(*ast.FuncDecl)
		if !ok || fd.Body == nil {
			continue
		}
		type wgUse struct {
			decl            *ast.Ident
			add, done, wait bool
			escapes         bool
		}
		uses := map[types.Object]*wgUse{}

		// Locally declared WaitGroup variables.
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			obj := p.Info.Defs[id]
			if obj == nil || !isWaitGroup(obj.Type()) {
				return true
			}
			if _, isVar := obj.(*types.Var); isVar {
				uses[obj] = &wgUse{decl: id}
			}
			return true
		})
		if len(uses) == 0 {
			continue
		}

		// Classify every use: method selector vs. anything else (escape).
		methodIdents := map[*ast.Ident]bool{}
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			id, ok := sel.X.(*ast.Ident)
			if !ok {
				return true
			}
			u, ok := uses[p.Info.Uses[id]]
			if !ok {
				return true
			}
			switch sel.Sel.Name {
			case "Add":
				u.add = true
				methodIdents[id] = true
			case "Done":
				u.done = true
				methodIdents[id] = true
			case "Wait":
				u.wait = true
				methodIdents[id] = true
			}
			return true
		})
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok || methodIdents[id] {
				return true
			}
			if u, ok := uses[p.Info.Uses[id]]; ok {
				u.escapes = true
			}
			return true
		})

		for _, u := range uses {
			if (u.add || u.done) && !u.wait && !u.escapes {
				p.Reportf(u.decl.Pos(), "sync.WaitGroup %q is Added/Doned but never Waited on in this function", u.decl.Name)
			}
		}
	}
}

// isWaitGroup reports whether t (or its pointee) is sync.WaitGroup.
func isWaitGroup(t types.Type) bool {
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	return isSyncType(t, "WaitGroup")
}

// isSyncType reports whether t is the named type sync.<name>.
func isSyncType(t types.Type, name string) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "sync" && obj.Name() == name
}
