package vslint

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/token"
)

// resourceRule declares one acquire/release pair by receiver type name.
// When signed is set, calls to that method classify by the sign of their
// constant argument: positive acquires, negative releases.
type resourceRule struct {
	recvType string
	acquire  map[string]bool
	release  map[string]bool
	signed   string
}

var resourceTable = []resourceRule{
	{
		recvType: "Accountant",
		acquire:  map[string]bool{"Reserve": true, "TryReserve": true},
		release:  map[string]bool{"Release": true},
	},
	{
		recvType: "Gauge",
		signed:   "Add",
	},
}

// ResourceBalance generalizes span-leak to table-declared acquire/release
// pairs: memory grants from exec.Accountant and telemetry gauge
// increments. A reservation that is not released on some path is a
// permanent leak of query-memory budget; an unbalanced gauge corrupts the
// in-flight counters the /metrics endpoint exports.
//
// Pairing runs per function body with an ownership-transfer convention:
// only resources both acquired AND released in the same function are
// checked (a reserve helper whose caller releases is legal), and a path
// that returns the acquire's own error is a failed acquire, not a leak. On
// top of the direct table calls, every static call site is widened by the
// callee's summarized net effects: a helper that reserves into its
// parameter counts as an acquire of the caller-side expression, and a
// deferred-release helper counts as a release, so Reserve-in-caller /
// Release-in-callee pairs verify instead of being skipped by the
// both-halves-in-one-function rule.
var ResourceBalance = &ModuleAnalyzer{
	Name: "resource-balance",
	Doc:  "acquire/release pairs (Accountant.Reserve/Release, Gauge.Add) must balance on all paths, seeing through helper calls via function summaries",
	Run:  runResourceBalance,
}

func runResourceBalance(mp *ModulePass) {
	for _, n := range mp.Graph.Nodes {
		if n.Body() == nil {
			continue
		}
		p := mp.passFor(n.Pkg)
		byPos := posEdgeIndex(n)
		spec := &pairSpec{
			bothRequired: true,
			leakMsg: func(s *acqSite) string {
				return fmt.Sprintf("%s is not released on every path (pair it with a release or defer one)", s.desc)
			},
			classify: func(p *Pass, node ast.Node, deferred bool, emit func(event)) {
				direct := map[token.Pos]bool{}
				classifyResource(p, node, deferred, func(ev event) {
					direct[ev.pos] = true
					emit(ev)
				})
				classifyCalleeEffects(mp, p, byPos, direct, node, deferred, emit)
			},
		}
		runPairingBody(p, n.Body(), spec)
	}
}

// classifyCalleeEffects emits acquire/release events for the summarized
// net effects of statically-resolved callees, mapped onto caller-side
// expressions. Positions already classified as direct table calls are
// skipped so a call is never counted twice.
func classifyCalleeEffects(mp *ModulePass, p *Pass, byPos map[token.Pos][]*CallEdge, direct map[token.Pos]bool, n ast.Node, deferred bool, emit func(event)) {
	inspectNode(n, func(sub ast.Node) bool {
		if _, ok := sub.(*ast.FuncLit); ok {
			return false
		}
		call, ok := sub.(*ast.CallExpr)
		if !ok || direct[call.Pos()] {
			return true
		}
		for _, e := range byPos[call.Pos()] {
			if e.Kind != EdgeStatic || e.Go {
				continue
			}
			for _, eff := range mp.Sums.Of(e.Callee).Effects {
				arg := effectArgExpr(call, eff.Param)
				if arg == nil {
					continue
				}
				base := exprKey(arg)
				if base == "" {
					continue
				}
				key := eff.Rule + ":" + base + eff.Path
				if eff.Acquire {
					if deferred {
						continue // a deferred acquire helper grants at exit; out of scope
					}
					emit(event{
						acquire: true,
						pos:     call.Pos(),
						call:    call,
						site: &acqSite{
							key:  key,
							desc: fmt.Sprintf("%s acquisition %s%s via %s", eff.Rule, base, eff.Path, e.Callee.Name),
						},
					})
				} else {
					// A callee that defers its release still releases by
					// the time the call returns: a plain release here.
					emit(event{acquire: false, pos: call.Pos(), key: key})
				}
			}
		}
		return true
	})
}

// classifyTableCall matches one call against resourceTable and reports
// whether it is an acquire or a release of which rule.
func classifyTableCall(p *Pass, call *ast.CallExpr) (rule string, recvExpr ast.Expr, acquire, release bool) {
	sel, ok := unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", nil, false, false
	}
	recv := namedTypeName(p.typeOf(sel.X))
	method := sel.Sel.Name
	for _, r := range resourceTable {
		if r.recvType != recv {
			continue
		}
		acquire, release = r.acquire[method], r.release[method]
		if r.signed == method && len(call.Args) > 0 {
			if tv, ok := p.Info.Types[call.Args[0]]; ok && tv.Value != nil &&
				(tv.Value.Kind() == constant.Int || tv.Value.Kind() == constant.Float) {
				switch constant.Sign(tv.Value) {
				case 1:
					acquire = true
				case -1:
					release = true
				}
			}
		}
		if acquire || release {
			return r.recvType, sel.X, acquire, release
		}
	}
	return "", nil, false, false
}

func classifyResource(p *Pass, n ast.Node, deferred bool, emit func(event)) {
	inspectNode(n, func(sub ast.Node) bool {
		if _, ok := sub.(*ast.FuncLit); ok {
			return false
		}
		call, ok := sub.(*ast.CallExpr)
		if !ok {
			return true
		}
		rule, recvExpr, acquire, release := classifyTableCall(p, call)
		base := exprKey(recvExpr)
		if rule == "" || base == "" {
			return true
		}
		key := rule + ":" + base
		switch {
		case acquire && !deferred:
			emit(event{
				acquire: true,
				pos:     call.Pos(),
				call:    call,
				site: &acqSite{
					key:  key,
					desc: fmt.Sprintf("%s acquisition %s.%s", rule, base, calleeName(call)),
				},
			})
		case release:
			emit(event{acquire: false, pos: call.Pos(), key: key})
		}
		return true
	})
}
