// Package vexpand implements VertexSurge's variable-length expand operator
// (§4 of the paper).
//
// VExpand takes a set S of source vertices and a variable-length path
// determiner D = (kmin, kmax, dir, type) and computes, for every source, the
// set of graph vertices d with D(s, d) = true, as a dense reachability bit
// matrix (rows = sources, columns = all vertices).
//
// Two kernel families are provided: a per-source BFS kernel over CSR
// adjacency, and the paper's stacked-columnar bit-matrix-multiplication
// kernel over a (Hilbert-ordered) COO edge list. The matrix kernel comes in
// the ablation variants of Figure 9 (Strawman, ColumnMajor, SIMD, Hilbert).
// All kernels compute identical results.
//
// Both families do only the work the frontier needs:
//
//   - The stacked-columnar rungs never multiply the identity frontier: step
//     1 is written straight from CSR adjacency (seedFromCSR) and the COO
//     loop starts at step 2, so a k-step expansion makes k−1 edge passes.
//   - An edge label has one Hilbert-sorted COO (graph.EdgeSet.COO). The
//     reverse direction is the same list with its two slices swapped, the
//     undirected one is both passes; cooStep hoists one window per 512-row
//     stack out of the edge loop and ORs fixed 8-word views of it.
//   - The BFS kernel keeps each source's frontier as a vertex list and its
//     seen set as one |V|-bit bitmap cleaned bit by bit, so a source costs
//     O(edges visited), independent of |V|.
//   - Auto (chooseKernel) compares the two in one unit — BFS edge visits
//     against column ORs times a measured cost ratio — and resolves to BFS
//     or Hilbert.
package vexpand

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"time"

	"repro/internal/bitmatrix"
	"repro/internal/graph"
	"repro/internal/pattern"
	"repro/internal/storage"
	"repro/internal/telemetry"
)

// Budget meters bit-matrix memory against a shared limit. It is satisfied
// by exec.Accountant; the interface is structural so vexpand (a leaf
// operator package) never imports the execution layer.
type Budget interface {
	// Reserve claims n bytes, returning an error when the limit cannot be
	// met even after pressure relief.
	Reserve(n int64) error
	// Release returns n previously reserved bytes.
	Release(n int64)
}

// Options configures a VExpand invocation.
type Options struct {
	// Kernel selects the expand kernel; Auto (the zero value) chooses
	// per invocation.
	Kernel Kernel
	// Workers bounds the number of parallel workers; 0 means GOMAXPROCS.
	// Work is partitioned by 512-row stack (matrix kernels) or by source
	// (BFS), which is conflict-free (Figure 4a).
	Workers int
	// KeepPerStep retains the per-step "newly reached" matrices so
	// callers can recover the minimal path length per (source, dst) pair
	// (needed by queries returning length(p), e.g. TCR1/TCR8).
	KeepPerStep bool
	// MaxSteps caps expansion for unbounded determiners; 0 means |V|.
	MaxSteps int
	// Spill, when set together with KeepPerStep on a matrix kernel,
	// offloads each step's matrix to the spill manager instead of
	// retaining it in memory (§5.3: intermediate results on disk).
	// Iterate memory-boundedly with Result.ForEachStep.
	Spill *storage.SpillManager
	// Budget, when set, meters the expansion's matrix allocations (the
	// working frontiers, the reachability matrix, retained per-step
	// clones) against a shared limit. The reservation is released when
	// the expansion returns: the budget bounds in-flight expansion
	// memory, so concurrent expansions compete for it.
	Budget Budget
	// DetectFixpoint stops an ANY expansion early when the frontier
	// matrix reaches a fixpoint (M(c+1) == M(c)): every further step
	// would reproduce the same matrix, so its contribution folds in at
	// once. The paper's engine multiplies through all k_max steps
	// (Figure 7's linear trend), so this is off by default; enable it
	// for large k_max on dense graphs.
	DetectFixpoint bool
}

// Stats reports what an expansion did; it feeds Figure 8 (stage breakdown)
// and Table 2 (intermediate result counts).
type Stats struct {
	// Kernel actually used after Auto resolution.
	Kernel Kernel
	// Steps is the number of expand steps executed.
	Steps int
	// IntermediateResults is the total number of set bits summed over
	// every step's frontier matrix — the "Expand" row of Table 2.
	IntermediateResults int64
	// UpdateVisitTime is time spent maintaining the visited set
	// (SHORTEST only; ANY spends none, matching Figure 8's C11/C12). The
	// BFS kernel tests and marks visited as part of each edge visit, so it
	// leaves this zero.
	UpdateVisitTime time.Duration
	// MatrixBytes is the peak bit-matrix allocation, for the Table 2
	// memory comparison.
	MatrixBytes int64
}

// Result is the outcome of a VExpand: the reachability matrix between the
// source set (rows) and every graph vertex (columns).
type Result struct {
	// Sources maps matrix row index to source vertex.
	Sources []graph.VertexID
	// Reach has Reach[i][j] = 1 iff D(Sources[i], j) holds.
	Reach *bitmatrix.Matrix
	// PerStep, when requested from a matrix kernel, holds the
	// newly-reached matrix of each step from the determiner's kmin on (no
	// length below it is ever asked for): PerStep[c][i][j] = 1 iff the
	// shortest walk from Sources[i] to j has exactly max(kmin,1)+c edges.
	// ForEachStep reports each with its step number. The BFS kernel
	// records sparse per-row distance maps instead; use MinLength either
	// way.
	PerStep []*bitmatrix.Matrix
	// bfsDist[i][j] is the minimal walk length of at least kmin from
	// Sources[i] to j when the BFS kernel ran with KeepPerStep.
	bfsDist []map[graph.VertexID]int
	// firstStep is the step number of the first retained step matrix,
	// max(kmin, 1).
	firstStep int
	// Spilled step matrices (matrix kernels with Options.Spill).
	spill        *storage.SpillManager
	spillHandles []storage.Handle
	// Stats reports kernel, timing, and intermediate-result counts.
	Stats Stats
}

// PairCount returns the number of (source, destination) pairs connected
// under the determiner — the operator's distinct output size.
func (r *Result) PairCount() int { return r.Reach.PopCount() }

// StepCount returns the number of retained per-step matrices (including
// spilled ones).
func (r *Result) StepCount() int {
	if r.spill != nil {
		return len(r.spillHandles)
	}
	return len(r.PerStep)
}

// StepMatrix returns the c-th retained newly-reached matrix, that of step
// max(kmin,1)+c, loading it from the spill manager when spilled. Spilled
// loads allocate; prefer ForEachStep for sequential scans.
func (r *Result) StepMatrix(c int) (*bitmatrix.Matrix, error) {
	if r.spill != nil {
		return r.spill.Load(r.spillHandles[c])
	}
	return r.PerStep[c], nil
}

// ForEachStep calls fn with each retained step matrix and its step number,
// in order, loading spilled matrices one at a time so memory stays bounded
// by one step.
func (r *Result) ForEachStep(fn func(step int, m *bitmatrix.Matrix) error) error {
	for c := 0; c < r.StepCount(); c++ {
		m, err := r.StepMatrix(c)
		if err != nil {
			return err
		}
		if err := fn(r.firstStep+c, m); err != nil {
			return err
		}
	}
	return nil
}

// MinLength returns the minimal walk length from Sources[row] to dst among
// the determiner's lengths (at least its kmin), and false if there is none
// or per-step data was not retained (KeepPerStep).
// With spilled steps each probe loads matrices from disk; batch consumers
// should use ForEachStep.
func (r *Result) MinLength(row int, dst graph.VertexID) (int, bool) {
	if r.bfsDist != nil {
		l, ok := r.bfsDist[row][dst]
		return l, ok
	}
	for c := 0; c < r.StepCount(); c++ {
		m, err := r.StepMatrix(c)
		if err != nil {
			return 0, false
		}
		if m.Get(row, int(dst)) {
			return r.firstStep + c, true
		}
	}
	return 0, false
}

// Expand runs the VExpand operator on g from the given sources under d.
func Expand(g *graph.Graph, sources []graph.VertexID, d pattern.Determiner, opts Options) (*Result, error) {
	return ExpandContext(context.Background(), g, sources, d, opts)
}

// ExpandContext is Expand with trace propagation: when ctx carries an
// active trace (see internal/telemetry), the call annotates the current
// span with the resolved kernel, source count, stack count, and the
// expansion's Stats, and spill writes under it record child spans. Without
// a trace the telemetry calls are no-ops.
func ExpandContext(ctx context.Context, g *graph.Graph, sources []graph.VertexID, d pattern.Determiner, opts Options) (*Result, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	sets, err := pattern.ResolveEdgeSets(g, d)
	if err != nil {
		return nil, err
	}
	for _, s := range sources {
		if int(s) >= g.NumVertices() {
			return nil, fmt.Errorf("vexpand: source %d out of range %d", s, g.NumVertices())
		}
	}

	kernel := opts.Kernel
	if kernel == Auto {
		kernel = chooseKernel(g, sources, d, sets)
	}

	e := &expansion{
		ctx:     ctx,
		g:       g,
		sources: sources,
		d:       d,
		sets:    sets,
		opts:    opts,
		kernel:  kernel,
		query:   telemetry.CurrentQuery(ctx),
	}
	var res *Result
	if kernel == BFS {
		res, err = e.runBFS()
	} else {
		res, err = e.runMatrix()
	}
	if err != nil {
		return nil, err
	}
	annotateSpan(telemetry.CurrentSpan(ctx), res, d)
	return res, nil
}

// annotateSpan records the expansion's vital signs on the enclosing trace
// span (no-op on a nil span).
func annotateSpan(sp *telemetry.Span, res *Result, d pattern.Determiner) {
	if sp == nil {
		return
	}
	sp.SetStr("kernel", res.Stats.Kernel.String())
	sp.SetInt("sources", int64(len(res.Sources)))
	sp.SetInt("kmin", int64(d.KMin))
	sp.SetInt("kmax", int64(d.KMax))
	sp.SetInt("stacks", int64(res.Reach.Stacks()))
	sp.SetInt("steps", int64(res.Stats.Steps))
	sp.SetInt("intermediate", res.Stats.IntermediateResults)
	sp.SetInt("matrix_bytes", res.Stats.MatrixBytes)
	// The operator's actual output cardinality — what EXPLAIN ANALYZE joins
	// against the planner's EstPairs. The popcount scan only runs when a
	// trace is active (nil-span early return above).
	sp.SetInt("pairs", int64(res.PairCount()))
}

// orCostInVisits is what one matrix column OR costs, in BFS edge visits.
// Measured single-worker on the social graph (deg 96 undirected) as the time
// step 2 adds to each kernel, divided by the ORs or visits it performs:
// |V|=9600: 5.9 ns/OR against 4.8 ns/visit (ratio 1.20-1.25 at |S|=512 and
// 1024); |V|=24000: 6.5 ns/OR against 6.5-6.6 ns/visit (ratio 1.0). Both
// stream memory — an OR moves two cache lines it mostly finds in cache thanks
// to the Hilbert order, a visit reads a CSR target and flips a bit — so the
// ratio is near one; the larger measured value is used, which leans a close
// call toward BFS, the kernel whose cost falls with the frontier.
const orCostInVisits = 1.2

// chooseKernel makes the planner's "fast online decision" (§5.2) between
// the per-source BFS kernel and the stacked-columnar matrix kernel, from
// |S|, |V|, |E|, direction and k only. Both kernels do the same work for
// step 1 (the matrix kernel seeds it from CSR: |S|·deg bit sets, exactly
// BFS's first frontier), so the decision is about steps 2..kmax:
//
//   - BFS visits, per source, the adjacency of every frontier vertex; the
//     frontier is estimated to grow by the average degree per step (never
//     to shrink, never beyond |V|).
//   - The matrix kernel ORs one column per directed edge per 512-row stack
//     per step, whatever the frontier holds; orCostInVisits converts ORs to
//     visits. A ragged last stack is charged pro rata so that adding
//     sources never flips the choice back to BFS.
//
// Dense frontiers (high degree, larger kmax) favor the matrix kernel even
// for small source sets; sparse expansions favor BFS, as does a tie (BFS
// allocates one matrix, not three). The matrix choice is always the Hilbert
// rung, the top of the ladder.
func chooseKernel(g *graph.Graph, sources []graph.VertexID, d pattern.Determiner, sets []*graph.EdgeSet) Kernel {
	nV := float64(g.NumVertices())
	var edges float64
	for _, es := range sets {
		edges += float64(es.Len())
	}
	if d.Dir == graph.Both {
		edges *= 2
	}
	if len(sources) == 0 || nV == 0 || edges == 0 {
		return BFS
	}
	deg := edges / nV
	kmax := d.KMax
	if kmax == pattern.Unbounded || kmax > 32 {
		kmax = 32
	}
	frontier, visitsPerSource := 1.0, 0.0
	for c := 2; c <= kmax; c++ {
		frontier = min(frontier*max(deg, 1), nV)
		visitsPerSource += frontier * deg
	}
	bfsVisits := float64(len(sources)) * visitsPerSource
	stacks := max(1, float64(len(sources))/bitmatrix.StackRows)
	matrixORs := stacks * edges * float64(kmax-1)
	if bfsVisits <= matrixORs*orCostInVisits {
		return BFS
	}
	return Hilbert
}

// expansion carries the state of one Expand call.
type expansion struct {
	ctx     context.Context
	g       *graph.Graph
	sources []graph.VertexID
	d       pattern.Determiner
	sets    []*graph.EdgeSet
	opts    Options
	kernel  Kernel
	// query is the registry entry of the enclosing query (nil outside a
	// registered query); per-step pair counts feed its live progress.
	query *telemetry.QueryInfo
	// reserved tracks bytes claimed on opts.Budget, released at return.
	reserved int64
	// budgetMu serializes the BFS workers' reservations, so a Budget
	// need not be safe for concurrent use by one expansion.
	budgetMu sync.Mutex
}

func (e *expansion) maxSteps() int {
	if e.d.KMax != pattern.Unbounded {
		return e.d.KMax
	}
	if e.opts.MaxSteps > 0 {
		return e.opts.MaxSteps
	}
	return e.g.NumVertices()
}

func (e *expansion) workers() int {
	if e.opts.Workers > 0 {
		return e.opts.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// reserve claims n bytes on the expansion's budget (no-op without one)
// and tracks the total for releaseAll.
func (e *expansion) reserve(n int64) error {
	if e.opts.Budget == nil || n <= 0 {
		return nil
	}
	if err := e.opts.Budget.Reserve(n); err != nil {
		return err
	}
	e.reserved += n
	return nil
}

// releaseAll returns every byte this expansion reserved.
func (e *expansion) releaseAll() {
	if e.opts.Budget != nil && e.reserved > 0 {
		e.opts.Budget.Release(e.reserved)
		e.reserved = 0
	}
}

// runMatrix executes the stacked-columnar (or straw-man row-major) kernels.
func (e *expansion) runMatrix() (*Result, error) {
	n := e.g.NumVertices()
	rows := len(e.sources)
	res := &Result{
		Sources:   e.sources,
		Reach:     bitmatrix.New(rows, n),
		firstStep: max(e.d.KMin, 1),
	}
	res.Stats.Kernel = e.kernel
	if rows == 0 {
		return res, nil
	}
	defer e.releaseAll()

	cur := bitmatrix.New(rows, n)
	next := bitmatrix.New(rows, n)
	for i, s := range e.sources {
		cur.Set(i, int(s))
	}
	var visited *bitmatrix.Matrix
	if e.d.Type == pattern.Shortest {
		visited = cur.Clone()
	}
	res.Stats.MatrixBytes = int64(cur.SizeBytes()+next.SizeBytes()) + int64(res.Reach.SizeBytes())
	if visited != nil {
		res.Stats.MatrixBytes += int64(visited.SizeBytes())
	}

	if e.d.KMin == 0 {
		res.Reach.Or(cur)
	}

	// Edge lists per set, resolved once: Hilbert-ordered for the Hilbert
	// rung, insertion order below it. Step 1 is seeded from
	// CSR, so a one-step expansion never needs (or builds) them.
	maxSteps := e.maxSteps()
	var coos []cooList
	if e.kernel != Strawman && maxSteps > 1 {
		for _, es := range e.sets {
			var src, dst []uint32
			if e.kernel == Hilbert {
				src, dst = es.COO()
			} else {
				src, dst = insertionCOO(es)
			}
			// One list serves all three directions: the reverse pass is
			// the same list with its slices swapped, the undirected pass
			// is both.
			if e.d.Dir != graph.Reverse {
				coos = append(coos, cooList{src, dst})
			}
			if e.d.Dir != graph.Forward {
				coos = append(coos, cooList{dst, src})
			}
		}
	}

	var rowCur, rowNext *rowMatrix
	if e.kernel == Strawman {
		rowCur = newRowMatrix(rows, n)
		rowNext = newRowMatrix(rows, n)
		rowCur.fromStacked(cur)
		res.Stats.MatrixBytes = 2 * int64(len(rowCur.words)) * 8
	}

	if err := e.reserve(res.Stats.MatrixBytes); err != nil {
		return nil, err
	}

	for step := 1; step <= maxSteps; step++ {
		// Cooperative cancellation checkpoint: one check per expand step
		// (each step is a full edge-list pass, so the check is amortized).
		if err := e.ctx.Err(); err != nil {
			return nil, err
		}
		if e.kernel == Strawman {
			rowNext.reset()
			strawmanStep(rowCur, rowNext, e.sets, e.d.Dir)
			next.CopyFrom(rowNext.toStacked())
		} else {
			next.Reset()
			if step == 1 {
				e.seedFromCSR(next)
			} else {
				e.parallelCOOStep(cur, next, coos)
			}
		}

		if e.d.Type == pattern.Shortest {
			t1 := time.Now()
			next.AndNot(visited)
			visited.Or(next)
			res.Stats.UpdateVisitTime += time.Since(t1)
			if e.kernel == Strawman {
				// The visited mask was applied to the stacked copy;
				// resynchronize the row-major working matrix.
				rowNext.fromStacked(next)
			}
		}
		res.Stats.Steps++
		// One popcount per step, shared between the expansion stats and the
		// live query-progress counter (pairs visible on /debug/queries
		// while the expansion is still stepping).
		stepPairs := int64(next.PopCount())
		res.Stats.IntermediateResults += stepPairs
		e.query.AddPairs(stepPairs)

		if step >= e.d.KMin {
			res.Reach.Or(next)
		}
		if e.opts.DetectFixpoint && e.d.Type == pattern.Any && next.Equal(cur) {
			// Fixpoint: M(c+1) == M(c) implies M(c') == M(c) for all
			// c' > c. If the merge range [kmin, kmax] was not yet
			// reached, the fixpoint matrix is what every merged step
			// would contribute.
			if step < e.d.KMin && e.d.KMax >= e.d.KMin {
				res.Reach.Or(next)
			}
			break
		}
		if e.opts.KeepPerStep && step >= res.firstStep {
			if e.opts.Spill != nil {
				h, err := e.opts.Spill.SpillContext(e.ctx, 0, next)
				if err != nil {
					return nil, err
				}
				res.spill = e.opts.Spill
				res.spillHandles = append(res.spillHandles, h)
			} else {
				if err := e.reserve(int64(next.SizeBytes())); err != nil {
					return nil, err
				}
				res.PerStep = append(res.PerStep, next.Clone())
			}
		}
		if !next.Any() {
			break // an empty frontier can never refill
		}
		cur, next = next, cur
		if e.kernel == Strawman {
			rowCur, rowNext = rowNext, rowCur
		}
	}
	return res, nil
}

// cooList is a resolved edge list for one edge set in one direction.
type cooList struct{ from, to []uint32 }

// parallelCOOStep runs one COO expand step, partitioning stacks across
// workers; stacks are disjoint row bands, so writes never conflict.
func (e *expansion) parallelCOOStep(cur, next *bitmatrix.Matrix, coos []cooList) {
	stacks := cur.Stacks()
	workers := e.workers()
	if workers > stacks {
		workers = stacks
	}
	unrolled := e.kernel != ColumnMajor
	if workers <= 1 {
		for _, c := range coos {
			cooStep(cur, next, c.from, c.to, 0, stacks, unrolled)
		}
		return
	}
	var wg sync.WaitGroup
	per := (stacks + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo, hi := w*per, (w+1)*per
		if hi > stacks {
			hi = stacks
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			for _, c := range coos {
				cooStep(cur, next, c.from, c.to, lo, hi, unrolled)
			}
		}(lo, hi)
	}
	wg.Wait()
}

// seedFromCSR writes the step-1 frontier: row i gets the neighbours of
// source i. It is the product of the identity frontier with the edge list
// without streaming the edge list — |S|·deg bit sets instead of one column
// OR per edge per stack.
func (e *expansion) seedFromCSR(next *bitmatrix.Matrix) {
	for i, s := range e.sources {
		e.adjacency(s, func(adj []uint32) {
			for _, j := range adj {
				next.Set(i, int(j))
			}
		})
	}
}

// adjacency calls fn with every CSR adjacency list of v the determiner
// follows: out-lists for →, in-lists for ←, both for −, per edge label.
// The lists are the CSR's own storage; nothing is merged or copied.
func (e *expansion) adjacency(v graph.VertexID, fn func(adj []uint32)) {
	for _, es := range e.sets {
		if e.d.Dir != graph.Reverse {
			fn(es.Out().Neighbors(v))
		}
		if e.d.Dir != graph.Forward {
			fn(es.In().Neighbors(v))
		}
	}
}

// insertionCOO returns the edge list in insertion order (the pre-Hilbert
// rungs of the ladder).
func insertionCOO(es *graph.EdgeSet) (src, dst []uint32) {
	n := es.Len()
	src = make([]uint32, n)
	dst = make([]uint32, n)
	for i := 0; i < n; i++ {
		src[i], dst[i] = es.Edge(i)
	}
	return src, dst
}

// runBFS executes the per-source BFS kernel over CSR adjacency. A source's
// frontier is a vertex list and its seen set a |V|-bit bitmap that is
// cleaned by un-setting exactly the bits that source set, so a source costs
// O(edges visited) however large the graph is. Each row's reach list goes
// to its stack's builder, which keeps the stack sparse until it fills, so
// the matrix costs its set bits rather than |V| per stack. Sources are
// partitioned across workers on stack boundaries; each builds its own
// stacks and reserves their bytes as they grow.
func (e *expansion) runBFS() (*Result, error) {
	n := e.g.NumVertices()
	rows := len(e.sources)
	res := &Result{
		Sources: e.sources,
		Reach:   bitmatrix.NewSparse(rows, n),
	}
	res.Stats.Kernel = BFS
	if rows == 0 {
		return res, nil
	}
	defer e.releaseAll()
	if e.opts.KeepPerStep {
		// The BFS kernel records sparse per-row distances rather than
		// 512-row-padded step matrices; each worker writes disjoint rows.
		res.bfsDist = make([]map[graph.VertexID]int, rows)
		for i := range res.bfsDist {
			res.bfsDist[i] = map[graph.VertexID]int{}
		}
	}

	stackCount := res.Reach.Stacks()
	workers := max(1, min(e.workers(), stackCount))

	stats := make([]bfsStats, workers)
	var wg sync.WaitGroup
	perStacks := (stackCount + workers - 1) / workers
	per := perStacks * bitmatrix.StackRows
	if workers == 1 {
		// One worker runs on the caller: a point lookup spawns nothing.
		e.bfsRows(res, &stats[0], 0, rows)
	} else {
		for w := 0; w < workers; w++ {
			lo, hi := w*per, min((w+1)*per, rows)
			if lo >= hi {
				continue
			}
			wg.Add(1)
			go func(st *bfsStats, lo, hi int) {
				defer wg.Done()
				e.bfsRows(res, st, lo, hi)
			}(&stats[w], lo, hi)
		}
		wg.Wait()
	}
	var budgetErr error
	for _, st := range stats {
		e.reserved += st.reserved
		if budgetErr == nil {
			budgetErr = st.err
		}
	}
	if err := e.ctx.Err(); err != nil {
		return nil, err
	}
	if budgetErr != nil {
		return nil, budgetErr
	}
	for _, st := range stats {
		res.Stats.Steps = max(res.Stats.Steps, st.steps)
		res.Stats.IntermediateResults += st.intermediate
	}
	res.Stats.MatrixBytes = int64(res.Reach.SizeBytes())
	return res, nil
}

// bfsStats is what one BFS worker reports back.
type bfsStats struct {
	steps        int
	intermediate int64
	// reserved is what the worker holds on the budget; err is the
	// reservation it was refused.
	reserved int64
	err      error
}

// reserveTo brings the worker's reservation on the expansion's budget to
// n bytes, releasing any excess; it reports false once a reservation is
// refused.
func (e *expansion) reserveTo(st *bfsStats, n int64) bool {
	if e.opts.Budget == nil || n == st.reserved {
		return true
	}
	e.budgetMu.Lock()
	defer e.budgetMu.Unlock()
	if n < st.reserved {
		e.opts.Budget.Release(st.reserved - n)
	} else if err := e.opts.Budget.Reserve(n - st.reserved); err != nil {
		st.err = err
		return false
	}
	st.reserved = n
	return true
}

// bfsRows expands sources[lo:hi], one BFS per row, on the calling worker,
// building the stacks of res.Reach those rows fill. It cannot return an
// error: on cancellation or a refused reservation it drains quietly and
// runBFS reports the error after the join.
func (e *expansion) bfsRows(res *Result, st *bfsStats, lo, hi int) {
	maxSteps := e.maxSteps()
	// Visited pruning is mandatory for SHORTEST; for ANY with kmin ≤ 1 it
	// is a pure optimization — the union of pruned frontiers over steps
	// 1..kmax equals the walk-reach union, and frontiers shrink instead of
	// churning. (For kmin ≥ 2 walk semantics needs true walk frontiers: a
	// vertex may be walk-reachable at step 2 but BFS-discovered at step 1.)
	// Without pruning, seen only de-duplicates within one step.
	prune := e.d.Type == pattern.Shortest || e.d.KMin <= 1
	// Under ANY semantics the source itself is walk-reachable through any
	// closed walk (e.g. out-and-back on an undirected edge), so it must
	// stay discoverable: only SHORTEST pre-marks the source as seen
	// (dist(s,s)=0 excludes it by definition).
	markSource := e.d.Type == pattern.Shortest
	seen := make([]uint64, (e.g.NumVertices()+63)/64)
	// queue[level:] is the current frontier; each step appends the next
	// one behind it. With pruning a vertex enters at most once, so the
	// queue is also the list of bits to clear when the row is done. It
	// starts at 4 KiB so a row's first steps do not each reallocate it.
	queue := make([]uint32, 0, 1024)
	// visit appends the not-yet-seen vertices of one adjacency list and
	// marks them seen. It is branch-free per edge (whether a neighbour was
	// seen is a coin flip on dense frontiers): every neighbour is written
	// at the tail, and the tail only advances past the new ones.
	visit := func(adj []uint32) {
		queue = slices.Grow(queue, len(adj))
		tail := queue[len(queue):cap(queue)]
		n := 0
		for _, j := range adj {
			if n >= len(tail) || int(j>>6) >= len(seen) {
				break // unreachable: Grow reserved len(adj) slots, CSR targets are < |V|
			}
			old := seen[j>>6]
			seen[j>>6] = old | 1<<(j&63)
			tail[n] = j
			n += int(^old >> (j & 63) & 1)
		}
		queue = queue[:len(queue)+n]
	}
	unsee := func(vs []uint32) {
		for _, j := range vs {
			seen[j>>6] &^= 1 << (j & 63)
		}
	}
	// held is what the finished stacks keep; the open stack's builder
	// holds the rest of the reservation.
	var sb *bitmatrix.StackBuilder
	var held int64
	for r := lo; r < hi; r++ {
		if e.ctx.Err() != nil {
			return
		}
		if sb == nil {
			sb = res.Reach.BuildStack(r / bitmatrix.StackRows)
		}
		src := e.sources[r]
		queue = append(queue[:0], src)
		level := 0
		if markSource {
			seen[src>>6] |= 1 << (src & 63)
		}
		if e.d.KMin == 0 {
			sb.AddRow(r, queue[:1])
		}
		rowSteps := 0
		for step := 1; step <= maxSteps; step++ {
			if e.ctx.Err() != nil {
				return
			}
			end := len(queue)
			for _, v := range queue[level:end] {
				e.adjacency(v, visit)
			}
			reached := queue[end:]
			rowSteps = step
			// Shared count: per-worker stats plus the live query-progress
			// pairs counter (atomic, nil-safe).
			st.intermediate += int64(len(reached))
			e.query.AddPairs(int64(len(reached)))
			if step >= e.d.KMin {
				sb.AddRow(r, reached)
			}
			if e.opts.KeepPerStep && step >= e.d.KMin {
				dist := res.bfsDist[r]
				for _, j := range reached {
					if _, known := dist[j]; !known {
						dist[j] = step
					}
				}
			}
			if len(reached) == 0 {
				break
			}
			if prune {
				level = end
			} else {
				unsee(reached)
				queue = queue[:copy(queue, reached)]
				level = 0
			}
		}
		st.steps = max(st.steps, rowSteps)
		// Clean seen for the next row. With pruning everything set is on
		// the queue (the source is queue[0]); without, each step already
		// cleaned up after itself.
		if prune {
			unsee(queue)
		}
		if !e.reserveTo(st, held+sb.Bytes()) {
			return
		}
		if r+1 == hi || (r+1)%bitmatrix.StackRows == 0 {
			held += int64(sb.Finish())
			sb = nil
			if !e.reserveTo(st, held) {
				return
			}
		}
	}
}
