package vslint

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// LockDiscipline verifies mutex pairing inside one function:
//
//   - Lock/Unlock and RLock/RUnlock must pair on every control-flow path
//     (an early return between Lock and Unlock wedges every later caller).
//   - An Unlock reachable on a path where the mutex is not held is a
//     double-unlock, which panics at runtime.
//
// Mutexes are tracked by their selector path ("c.mu"), so aliasing through
// locals or containers is out of scope; read and write modes pair
// independently. Cross-function hazards — a lock held across a call that
// re-locks — are the interprocedural LockOrder analyzer's job.
var LockDiscipline = &Analyzer{
	Name: "lock-discipline",
	Doc:  "Lock/Unlock and RLock/RUnlock must pair on all paths; no double-unlock",
	Run:  runLockDiscipline,
}

func runLockDiscipline(p *Pass) {
	spec := &pairSpec{
		classify:          classifyLock,
		unbalancedRelease: true,
		leakMsg: func(s *acqSite) string {
			return fmt.Sprintf("%s is locked here but not unlocked on every path", s.desc)
		},
		releaseMsg: func(key string) string {
			mode, base, _ := strings.Cut(key, ":")
			verb := "Unlock"
			if mode == "R" {
				verb = "RUnlock"
			}
			return fmt.Sprintf("%s of %s on a path where it is not held (possible double-unlock)", verb, base)
		},
	}
	forEachFuncDecl(p, func(fd *ast.FuncDecl) { runPairing(p, fd, spec) })
}

func classifyLock(p *Pass, n ast.Node, deferred bool, emit func(event)) {
	inspectNode(n, func(sub ast.Node) bool {
		if _, ok := sub.(*ast.FuncLit); ok {
			return false
		}
		call, ok := sub.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return true
		}
		tn := namedTypeName(p.typeOf(sel.X))
		if tn != "Mutex" && tn != "RWMutex" {
			return true
		}
		base := exprKey(sel.X)
		if base == "" {
			return true
		}
		var mode string
		acquire := false
		switch sel.Sel.Name {
		case "Lock":
			mode, acquire = "W", true
		case "RLock":
			mode, acquire = "R", true
		case "Unlock":
			mode = "W"
		case "RUnlock":
			mode = "R"
		default:
			return true
		}
		key := mode + ":" + base
		if acquire {
			if deferred {
				return true // `defer mu.Lock()` is nonsense; not this check's job
			}
			emit(event{
				acquire: true,
				pos:     call.Pos(),
				site: &acqSite{
					key:   key,
					desc:  fmt.Sprintf("mutex %s", base),
					class: globalLockClass(p, sel.X),
				},
			})
		} else {
			emit(event{acquire: false, pos: call.Pos(), key: key})
		}
		return true
	})
}

// LockOrder is the interprocedural deadlock detector. It generalizes the
// rule this file used to hardcode ("no Accountant.Reserve under the
// MatrixCache mutex"): every function's held-lock sets at its call sites
// feed a module-global lock-acquisition-order graph — an edge A→B means
// "some goroutine acquires B while holding A", resolved through the call
// graph and the transitive lock summaries. Any cycle in that graph
// (including a self-loop: Go mutexes are not recursive) is a potential
// deadlock, reported with the full call-chain witness from the holding
// function to the offending acquire.
var LockOrder = &ModuleAnalyzer{
	Name: "lock-order",
	Doc:  "no cycles in the module-global lock-acquisition-order graph (interprocedural deadlock detection)",
	Run:  runLockOrder,
}

// orderEdge is one lock-order observation: while holding from, the code at
// pos may acquire to, through the call chain in frames.
type orderEdge struct {
	from, to string
	pos      token.Pos
	frames   []string
	approx   bool
}

func runLockOrder(mp *ModulePass) {
	var edges []orderEdge
	for _, n := range mp.Graph.Nodes {
		if n.Body() == nil {
			continue
		}
		edges = append(edges, collectOrderEdges(mp, n)...)
	}
	if len(edges) == 0 {
		return
	}

	// Condense the class graph into SCCs; an edge inside a component (or a
	// self-loop) lies on a cycle.
	adj := map[string]map[string]bool{}
	for _, e := range edges {
		if adj[e.from] == nil {
			adj[e.from] = map[string]bool{}
		}
		adj[e.from][e.to] = true
	}
	scc := classSCCs(adj)

	seen := map[string]bool{}
	for _, e := range edges {
		onCycle := e.from == e.to || (scc[e.from] == scc[e.to] && scc[e.from] != 0)
		if !onCycle {
			continue
		}
		key := fmt.Sprintf("%v:%s->%s", mp.Mod.Fset.Position(e.pos), e.from, e.to)
		if seen[key] {
			continue
		}
		seen[key] = true
		witness := strings.Join(e.frames, " → ")
		if e.from == e.to {
			mp.Reportf(e.pos, e.approx,
				"lock-order cycle: %s may be re-acquired while already held (self-deadlock; Go mutexes are not recursive); witness: %s → Lock(%s)",
				e.from, witness, e.to)
		} else {
			mp.Reportf(e.pos, e.approx,
				"lock-order cycle: %s is acquired while holding %s, completing a cycle in the lock-acquisition-order graph; witness: %s → Lock(%s)",
				e.to, e.from, witness, e.to)
		}
	}
}

// collectOrderEdges runs the pairing engine over one function in silent
// mode and records, at every call site, the order edges the call induces
// against the held set.
func collectOrderEdges(mp *ModulePass, n *FuncNode) []orderEdge {
	var edges []orderEdge
	p := mp.passFor(n.Pkg)
	byPos := posEdgeIndex(n)
	spec := &pairSpec{
		classify: classifyLock,
		callCheck: func(p *Pass, call *ast.CallExpr, held []*acqSite, reportf func(token.Pos, string, ...any)) {
			var heldClasses []*acqSite
			for _, h := range held {
				if h.class != "" && h.pos != call.Pos() {
					heldClasses = append(heldClasses, h)
				}
			}
			if len(heldClasses) == 0 {
				return
			}
			// Case 1: the call is itself a lock acquire.
			if lockExpr, ok := mutexAcquire(p, call); ok {
				if to := globalLockClass(p, lockExpr); to != "" {
					for _, h := range heldClasses {
						edges = append(edges, orderEdge{
							from:   h.class,
							to:     to,
							pos:    call.Pos(),
							frames: []string{n.Name},
						})
					}
				}
				return
			}
			// Case 2: the call may transitively acquire locks per the
			// callee summaries.
			for _, e := range byPos[call.Pos()] {
				if e.Go || e.Callee == mp.Graph.Unknown || e.Kind == EdgeUnknown {
					continue
				}
				calleeSum := mp.Sums.Of(e.Callee)
				for class, step := range calleeSum.Locks {
					frames := append([]string{n.Name}, witnessChain(mp.Sums, e.Callee.Name, class)...)
					for _, h := range heldClasses {
						edges = append(edges, orderEdge{
							from:   h.class,
							to:     class,
							pos:    call.Pos(),
							frames: frames,
							approx: e.Kind.Approx() || step.Approx,
						})
					}
				}
			}
		},
	}
	runPairingBody(p, n.Body(), spec)
	return edges
}

// witnessChain walks the Via links of the lock summaries from start until
// the function that acquires class directly.
func witnessChain(sums *Summaries, start, class string) []string {
	var chain []string
	cur := start
	visited := map[string]bool{}
	for cur != "" && !visited[cur] {
		visited[cur] = true
		chain = append(chain, cur)
		sum := sums.ByName(cur)
		if sum == nil {
			break
		}
		step, ok := sum.Locks[class]
		if !ok {
			break
		}
		cur = step.Via
	}
	return chain
}

// classSCCs assigns a component id to every class with a non-trivial SCC
// membership (id 0 marks singleton components without self-loops).
func classSCCs(adj map[string]map[string]bool) map[string]int {
	classes := make([]string, 0, len(adj))
	index := map[string]int{}
	for from, tos := range adj {
		if _, ok := index[from]; !ok {
			index[from] = len(classes)
			classes = append(classes, from)
		}
		for to := range tos {
			if _, ok := index[to]; !ok {
				index[to] = len(classes)
				classes = append(classes, to)
			}
		}
	}
	sort.Strings(classes)
	for i, c := range classes {
		index[c] = i
	}

	// Tiny iterative Tarjan over the class graph (a handful of nodes).
	n := len(classes)
	const unvisited = -1
	idx := make([]int, n)
	low := make([]int, n)
	onStack := make([]bool, n)
	for i := range idx {
		idx[i] = unvisited
	}
	var stack []int
	next, compID := 0, 0
	comp := make([]int, n)
	sortedAdj := func(v int) []int {
		tos := make([]int, 0, len(adj[classes[v]]))
		for to := range adj[classes[v]] {
			tos = append(tos, index[to])
		}
		sort.Ints(tos)
		return tos
	}
	for root := 0; root < n; root++ {
		if idx[root] != unvisited {
			continue
		}
		type frame struct {
			v, edge int
			succs   []int
		}
		frames := []frame{{v: root, succs: sortedAdj(root)}}
		idx[root], low[root] = next, next
		next++
		stack = append(stack, root)
		onStack[root] = true
		for len(frames) > 0 {
			f := &frames[len(frames)-1]
			if f.edge < len(f.succs) {
				w := f.succs[f.edge]
				f.edge++
				if idx[w] == unvisited {
					idx[w], low[w] = next, next
					next++
					stack = append(stack, w)
					onStack[w] = true
					frames = append(frames, frame{v: w, succs: sortedAdj(w)})
				} else if onStack[w] && idx[w] < low[f.v] {
					low[f.v] = idx[w]
				}
				continue
			}
			if low[f.v] == idx[f.v] {
				var members []int
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					members = append(members, w)
					if w == f.v {
						break
					}
				}
				compID++
				id := 0
				if len(members) > 1 {
					id = compID // only multi-node components mark cycles
				}
				for _, m := range members {
					comp[m] = id
				}
			}
			v := f.v
			frames = frames[:len(frames)-1]
			if len(frames) > 0 {
				pf := &frames[len(frames)-1]
				if low[v] < low[pf.v] {
					low[pf.v] = low[v]
				}
			}
		}
	}
	out := map[string]int{}
	for i, c := range classes {
		out[c] = comp[i]
	}
	return out
}
