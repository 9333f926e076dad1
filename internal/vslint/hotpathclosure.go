package vslint

import (
	"strings"
)

// HotpathClosure closes the gap hotpath-alloc leaves open: the syntactic
// analyzer inspects only the annotated function's own body, so a
// //vs:hotpath kernel that calls an allocating helper passes silently.
// This analyzer walks everything transitively reachable from each hotpath
// root through the call graph and requires every member of that closure to
// be one of:
//
//   - allocation-free: nothing forEachAlloc reports (the rules hotpath-alloc
//     applies to the root itself), or proven clean by the compiler baseline
//     (zero escapes recorded for it in bench/vslint_baseline.json — the
//     escape analysis outranks the syntactic guess, so a stack-allocated
//     make is fine);
//   - annotated //vs:coldpath: an explicit declaration that the call is a
//     slow-path branch (eviction, error handling) whose cost is accepted;
//   - marked //go:noinline: the conventional shape for a deliberately
//     outlined cold helper.
//
// Traversal stops at coldpath/noinline members. Members reached only over
// approximate dispatch edges (interface or signature-matched candidates)
// are reported as info-severity advisories. Calls into other modules
// (stdlib) are invisible to the graph and therefore not checked — the
// compiler gate's escape counts on the root remain the backstop there.
var HotpathClosure = &ModuleAnalyzer{
	Name: "hotpath-closure",
	Doc:  "everything reachable from a //vs:hotpath root must be allocation-free, //vs:coldpath, or //go:noinline",
	Run:  runHotpathClosure,
}

func runHotpathClosure(mp *ModulePass) {
	type visit struct {
		reported bool
		approx   bool
	}
	visited := map[*FuncNode]*visit{}

	var dfs func(n *FuncNode, path []string, approx bool)
	dfs = func(n *FuncNode, path []string, approx bool) {
		for _, e := range n.Out {
			callee := e.Callee
			if callee == mp.Graph.Unknown || e.Kind == EdgeUnknown {
				continue
			}
			if callee.Coldpath || callee.Noinline {
				continue // declared cold: the closure boundary
			}
			edgeApprox := approx || e.Kind.Approx()
			v := visited[callee]
			if v != nil {
				// Revisit only if a precise path reaches a node first seen
				// over an approximate one: the finding severity upgrades.
				if v.approx && !edgeApprox {
					v.approx = false
					v.reported = false
				} else {
					continue
				}
			} else {
				v = &visit{approx: edgeApprox}
				visited[callee] = v
			}
			chain := append(append([]string{}, path...), callee.Name)
			if !v.reported && !callee.Hotpath {
				sum := mp.Sums.Of(callee)
				if sum.AllocReason != "" && !baselineClean(mp.Baseline, callee.Name) {
					v.reported = true
					mp.reportAt(sum.AllocPos, edgeApprox,
						"%s is reachable from //vs:hotpath root %s (via %s) and may allocate (%s); make it allocation-free or mark it //vs:coldpath or //go:noinline",
						callee.Name, path[0], strings.Join(chain, " → "), sum.AllocReason)
				}
			}
			dfs(callee, chain, edgeApprox)
		}
	}

	for _, root := range mp.Graph.Nodes {
		if root.Hotpath {
			dfs(root, []string{root.Name}, false)
		}
	}
}

// baselineClean reports whether the compiler gate recorded a zero-escape
// entry for name: the escape analysis proved every syntactic allocation
// candidate stays on the stack.
func baselineClean(b *CompilerBaseline, name string) bool {
	if b == nil {
		return false
	}
	c, ok := b.Functions[name]
	return ok && c.Escapes == 0
}
