// Package mintersect implements VertexSurge's MIntersect operator (§5.1):
// a Generic Join (worst-case optimal join) over the reachability bit
// matrices produced by VExpand.
//
// Pattern vertices are processed in a planner-chosen order t0, t1, …,
// t(n-1). The matrix of every pattern edge is oriented so that its *rows*
// are the candidate vertices of the later endpoint in that order and its
// *columns* are all graph vertices. Enumerating the first edge's pairs and
// then, for each later vertex, AND-ing together one column from each matrix
// that connects it to already-bound vertices (Figure 5's intersec_col)
// yields exactly the matched tuples, each produced once. A column selected
// by a vertex bound before t-1 is ANDed once per binding of the vertices
// before t-1 (hoisted), not once per extension of t.
package mintersect

import (
	"context"
	"fmt"
	"math/bits"
	"sync"

	"repro/internal/bitmatrix"
	"repro/internal/graph"
	"repro/internal/telemetry"
)

// EdgeMatrix is the reachability matrix of one pattern edge, oriented for
// the join order: row i corresponds to Rows[i], a candidate of the
// later-ordered endpoint; column j corresponds to graph vertex j. Bit
// (i, j) means the edge's determiner holds between Rows[i] and j.
type EdgeMatrix struct {
	// EarlierPos is the join-order position of the already-bound endpoint
	// whose binding selects the column to fetch.
	EarlierPos int
	// M is the reachability matrix (rows = candidates, cols = |V|).
	M *bitmatrix.Matrix
}

// Input describes one MIntersect invocation.
type Input struct {
	// NumPatternVertices is n, the number of pattern vertices (≥ 2).
	NumPatternVertices int
	// FirstCols are the candidates of join-order position 0, whose
	// columns of First are scanned to enumerate the seed pairs. The planner
	// produces them strictly ascending, like RowCandidates.
	FirstCols []graph.VertexID
	// First is the matrix of the edge between positions 0 and 1, with
	// rows = candidates of position 1.
	First *EdgeMatrix
	// RowCandidates[t] lists the candidates of position t (t ≥ 1); row i
	// of every matrix for position t corresponds to RowCandidates[t][i].
	// Lists come from planner.Plan.CandList and are strictly ascending; the
	// join merges them, and a hand-built input without that order is
	// rejected.
	RowCandidates [][]graph.VertexID
	// Ext[t] (t ≥ 2) holds one EdgeMatrix per pattern edge between
	// position t and an earlier position. Every position ≥ 2 must have at
	// least one (patterns must be connected in join order).
	Ext [][]*EdgeMatrix
}

// Options configures Run.
type Options struct {
	// CountOnly counts the final intersection with the SIMD-popcount fast
	// path instead of enumerating its tuples (§5.1's counting optimization).
	CountOnly bool
	// Workers partitions Run's seed columns across goroutines (each owns a
	// FirstCols slice, so no writes conflict). Ignored when ≤ 1, and by
	// ForEachUntil, which hands tuples to one consumer in order.
	Workers int
}

// Stats reports operator effort.
type Stats struct {
	// Intersections is the number of column ANDs run, counting the column
	// copy that starts a set. A matrix joining position t to t-1 is ANDed
	// once per extension of t; one joining t to an earlier position is
	// hoisted and ANDed once per binding of positions 0..t-2.
	Intersections int64
	// SeedPairs is the number of first-edge pairs enumerated.
	SeedPairs int64
}

// Result is the operator output: the number of distinct matched tuples and
// the effort spent finding them. The tuples themselves go to ForEachUntil's
// consumer; Run keeps none.
type Result struct {
	Count int64
	Stats Stats
}

// validate checks the input's shape and the strictly ascending candidate
// lists that the join's merges (the two-vertex count's self-matches, the
// row arrays) rely on. It runs once per join, before any partitioning.
func (in *Input) validate() error {
	n := in.NumPatternVertices
	if n < 2 {
		return fmt.Errorf("mintersect: need at least 2 pattern vertices, got %d", n)
	}
	if in.First == nil || in.First.M == nil {
		return fmt.Errorf("mintersect: missing first edge matrix")
	}
	if len(in.RowCandidates) < n {
		return fmt.Errorf("mintersect: RowCandidates has %d entries, want %d", len(in.RowCandidates), n)
	}
	if len(in.Ext) < n {
		return fmt.Errorf("mintersect: Ext has %d entries, want %d", len(in.Ext), n)
	}
	for t := 2; t < n; t++ {
		if len(in.Ext[t]) == 0 {
			return fmt.Errorf("mintersect: position %d has no connecting edge (disconnected join order)", t)
		}
		for _, em := range in.Ext[t] {
			if em.EarlierPos < 0 || em.EarlierPos >= t {
				return fmt.Errorf("mintersect: position %d references invalid earlier position %d", t, em.EarlierPos)
			}
			if em.M.Rows() != len(in.RowCandidates[t]) {
				return fmt.Errorf("mintersect: position %d matrix has %d rows, want %d",
					t, em.M.Rows(), len(in.RowCandidates[t]))
			}
		}
	}
	if in.First.M.Rows() != len(in.RowCandidates[1]) {
		return fmt.Errorf("mintersect: first matrix has %d rows, want %d",
			in.First.M.Rows(), len(in.RowCandidates[1]))
	}
	if !ascending(in.FirstCols) {
		return fmt.Errorf("mintersect: FirstCols must be strictly ascending")
	}
	for t := 1; t < n; t++ {
		if !ascending(in.RowCandidates[t]) {
			return fmt.Errorf("mintersect: RowCandidates[%d] must be strictly ascending", t)
		}
	}
	return nil
}

// ascending reports whether list is strictly ascending.
func ascending(list []graph.VertexID) bool {
	for i := 1; i < len(list); i++ {
		if list[i-1] >= list[i] {
			return false
		}
	}
	return true
}

// Run executes the Generic Join and returns the number of distinct matched
// tuples, by the popcount fast path under CountOnly and by enumeration
// otherwise. Matched vertices within one tuple are pairwise distinct
// (Definition 3 requires the match to be a bijection); ForEachUntil hands
// the tuples themselves to a consumer.
//
// With Options.Workers > 1, the seed columns are partitioned across
// goroutines and their counts and statistics summed.
func Run(in *Input, opts Options) (*Result, error) {
	return RunContext(context.Background(), in, opts)
}

// RunContext is Run with trace propagation: when ctx carries an active
// trace, the join records an "intersect" span with the worker count,
// seed pairs, column intersections, and tuples matched.
func RunContext(ctx context.Context, in *Input, opts Options) (*Result, error) {
	_, sp := telemetry.StartSpan(ctx, "intersect")
	res, err := run(ctx, in, opts)
	if err == nil {
		annotateSpan(sp, res, opts)
	}
	sp.End()
	return res, err
}

// annotateSpan records the join's effort on the enclosing span (no-op on a
// nil span).
func annotateSpan(sp *telemetry.Span, res *Result, opts Options) {
	if sp == nil {
		return
	}
	workers := opts.Workers
	if workers < 1 {
		workers = 1
	}
	sp.SetInt("workers", int64(workers))
	sp.SetInt("tuples", res.Count)
	sp.SetInt("seed_pairs", res.Stats.SeedPairs)
	sp.SetInt("intersections", res.Stats.Intersections)
}

func run(ctx context.Context, in *Input, opts Options) (*Result, error) {
	if err := in.validate(); err != nil {
		return nil, err
	}
	workers := opts.Workers
	if workers > len(in.FirstCols) {
		workers = len(in.FirstCols)
	}
	if workers <= 1 {
		return runSerial(ctx, in, opts)
	}

	parts := make([]*Result, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	per := (len(in.FirstCols) + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo, hi := w*per, (w+1)*per
		if hi > len(in.FirstCols) {
			hi = len(in.FirstCols)
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			sub := *in
			sub.FirstCols = in.FirstCols[lo:hi]
			parts[w], errs[w] = runSerial(ctx, &sub, Options{CountOnly: opts.CountOnly})
		}(w, lo, hi)
	}
	wg.Wait()
	res := &Result{}
	for w := 0; w < workers; w++ {
		if errs[w] != nil {
			return nil, errs[w]
		}
		if parts[w] == nil {
			continue
		}
		res.Count += parts[w].Count
		res.Stats.Intersections += parts[w].Stats.Intersections
		res.Stats.SeedPairs += parts[w].Stats.SeedPairs
	}
	return res, nil
}

func runSerial(ctx context.Context, in *Input, opts Options) (*Result, error) {
	res := &Result{}
	if err := forEach(ctx, in, opts, func([]graph.VertexID) bool { return true }, res); err != nil {
		return nil, err
	}
	return res, nil
}

// ForEachContext is ForEachUntil for a consumer that takes every tuple.
func ForEachContext(ctx context.Context, in *Input, opts Options, fn func(tuple []graph.VertexID), res *Result) error {
	return ForEachUntil(ctx, in, opts, func(tuple []graph.VertexID) bool {
		fn(tuple)
		return true
	}, res)
}

// ForEachUntil runs the join serially on the calling goroutine, invoking fn
// for each matched tuple (in join order; the slice is reused between calls)
// until fn returns false, which ends the join without an error. When
// opts.CountOnly is set fn is never called and only statistics and the count
// accumulate in res. Like RunContext it records an "intersect" span under an
// active trace and observes ctx cooperatively, returning its error when
// canceled mid-enumeration.
func ForEachUntil(ctx context.Context, in *Input, opts Options, fn func(tuple []graph.VertexID) bool, res *Result) error {
	_, sp := telemetry.StartSpan(ctx, "intersect")
	err := in.validate()
	if err == nil {
		err = forEach(ctx, in, opts, fn, res)
	}
	if err == nil {
		annotateSpan(sp, res, opts)
	}
	sp.End()
	return err
}

// forEach runs the join over an input its caller has validated.
func forEach(ctx context.Context, in *Input, opts Options, fn func(tuple []graph.VertexID) bool, res *Result) error {
	n := in.NumPatternVertices
	e := &executor{
		ctx:   ctx,
		in:    in,
		opts:  opts,
		fn:    fn,
		res:   res,
		bound: make([]graph.VertexID, n),
		rows:  make([]int, n),
	}
	// A two-vertex join never extends past the seed loop, so only a longer
	// one pays for the levels.
	if n > 2 {
		e.levels = make([]level, n)
		for t := 2; t < n; t++ {
			e.levels[t] = newLevel(in, t)
		}
	}
	return e.run()
}

// level is join position t's state (t ≥ 2). Ext[t] splits by what binds
// its column: an early matrix's earlier endpoint precedes t-1, so its
// column holds across every binding of t-1 and is ANDed once into hoisted
// (GraphMini's auxiliary-set pruning, in bitmap form); a late one is joined
// to t-1 and ANDed per extension.
type level struct {
	early, late []*EdgeMatrix
	// hoisted is the AND of the early columns under the current binding of
	// positions 0..t-2, with their own rows cleared; nil without early
	// matrices.
	hoisted []uint64
	// scratch is the candidate set of the current extension.
	scratch []uint64
	// rowAt[p][i] is the row at t of position p's i-th candidate (FirstCols
	// for p = 0, RowCandidates[p] otherwise), or -1 when that vertex is not
	// among t's candidates: the bijection's row lookup.
	rowAt [][]int32
}

// newLevel splits Ext[t] into early and late matrices and builds the
// level's buffers and row arrays, once per join.
func newLevel(in *Input, t int) level {
	m := in.Ext[t][0].M
	lv := level{scratch: m.NewColumn()}
	for _, em := range in.Ext[t] {
		if em.EarlierPos == t-1 {
			lv.late = append(lv.late, em)
		} else {
			lv.early = append(lv.early, em)
		}
	}
	if len(lv.early) > 0 {
		lv.hoisted = m.NewColumn()
	}
	lv.rowAt = make([][]int32, t)
	lv.rowAt[0] = rowsAt(in.FirstCols, in.RowCandidates[t])
	for p := 1; p < t; p++ {
		lv.rowAt[p] = rowsAt(in.RowCandidates[p], in.RowCandidates[t])
	}
	return lv
}

// rowsAt maps every vertex of list to its row in cands, or -1, by one merge
// of the two strictly ascending lists.
func rowsAt(list, cands []graph.VertexID) []int32 {
	out := make([]int32, len(list))
	j := 0
	for i, v := range list {
		for j < len(cands) && cands[j] < v {
			j++
		}
		out[i] = -1
		if j < len(cands) && cands[j] == v {
			out[i] = int32(j)
		}
	}
	return out
}

// cancelCheckMask gates how often the join polls the context: seeds and
// extension calls draw on one budget of cancelCheckMask+1 units per poll,
// which keeps both loops free of the context's mutex while bounding
// cancellation latency to ~1k column operations.
const cancelCheckMask = 1<<10 - 1

type executor struct {
	ctx   context.Context
	in    *Input
	opts  Options
	fn    func([]graph.VertexID) bool
	res   *Result
	bound []graph.VertexID
	// rows[p] is position p's bound row: its index in FirstCols for p = 0,
	// its matrix row for p ≥ 1.
	rows []int
	// levels is indexed by position (0 and 1 unused); nil when n = 2.
	levels  []level
	stopped bool // a cancellation, or fn returning false, ends the join
	// calls counts seeds and extend invocations for the periodic
	// cancellation poll; err latches the context error that stopped the
	// enumeration.
	calls uint
	err   error
}

// canceled spends one unit of the poll budget and reports whether the join
// must stop. It inlines to a counter test in both loops; only every
// cancelCheckMask+1-th unit reaches poll.
func (e *executor) canceled() bool {
	e.calls++
	return e.calls&cancelCheckMask == 0 && e.poll()
}

// poll asks the context; a cancellation latches err and stops the join.
func (e *executor) poll() bool {
	if err := e.ctx.Err(); err != nil {
		e.err = err
		e.stopped = true
		return true
	}
	return false
}

func (e *executor) run() error {
	// A join on a canceled context fails before any seed.
	if err := e.ctx.Err(); err != nil {
		return err
	}
	first := e.in.First.M
	cand1 := e.in.RowCandidates[1]
	cols := e.in.FirstCols
	if e.in.NumPatternVertices == 2 && e.opts.CountOnly {
		// Counting fast path: popcount every seed column, then take out the
		// self-matches (bijection) in one merge over the two lists, which
		// validate has checked are ascending.
		pairs := -selfMatches(first, cols, cand1)
		bitmatrix.SeedCounts(first, cols, func(_, n int) bool {
			if e.canceled() {
				return false
			}
			pairs += int64(n)
			return true
		})
		if e.err != nil {
			return e.err
		}
		e.res.Count += pairs
		e.res.Stats.SeedPairs += pairs
		return nil
	}
	// bitmatrix owns the seed loop: it visits every seed column of a dense
	// matrix, and only the non-empty ones of a sparse one.
	var c0 graph.VertexID
	bitmatrix.ForEachSeed(first, cols, func(i int) bool {
		if e.stopped || e.canceled() {
			return false
		}
		c0 = cols[i]
		e.bound[0] = c0
		if e.levels != nil { // n > 2: position 2 may hoist columns of c0
			e.rows[0] = i
			e.hoist(2)
		}
		return true
	}, func(row int) bool {
		v1 := cand1[row]
		if v1 == c0 {
			return true // bijection: θ must be injective
		}
		e.res.Stats.SeedPairs++
		e.bound[1] = v1
		e.rows[1] = row
		e.extend(2)
		return !e.stopped
	})
	return e.err
}

// selfMatches counts the vertices that are both a seed and a row candidate
// and reach themselves in first — the pairs a column popcount includes and
// the bijection forbids — by one merge over the two strictly ascending lists.
//
//vs:hotpath
func selfMatches(first *bitmatrix.Matrix, seeds, rows []graph.VertexID) int64 {
	var n int64
	// Unsigned cursors: the loop condition is then the bounds proof.
	var i, j uint
	for i < uint(len(seeds)) && j < uint(len(rows)) {
		switch s, r := seeds[i], rows[j]; {
		case s < r:
			i++
		case s > r:
			j++
		default:
			if first.Get(int(j), int(s)) {
				n++
			}
			i++
			j++
		}
	}
	return n
}

// hoist ANDs position t's early columns into its hoisted set and clears
// the rows of positions 0..t-2, once per binding of those positions; a
// no-op without early matrices or when t ≥ n.
//
//vs:hotpath
func (e *executor) hoist(t int) {
	if uint(t) >= uint(len(e.levels)) {
		return
	}
	lv := &e.levels[t]
	early := lv.early
	if len(early) == 0 {
		return
	}
	dst, bound := lv.hoisted, e.bound
	if p := early[0].EarlierPos; uint(p) < uint(len(bound)) {
		early[0].M.CopyColumn(dst, int(bound[p]))
	}
	for _, em := range early[1:] {
		if p := em.EarlierPos; uint(p) < uint(len(bound)) {
			em.M.AndColumn(dst, int(bound[p]))
		}
	}
	e.res.Stats.Intersections += int64(len(early))
	for p := 0; p < t-1; p++ {
		clearRow(dst, lv.rowAt, e.rows, p)
	}
}

// extend binds join position t: its candidate set is the hoisted early
// columns AND the columns of the late matrices selected by bound[t-1]
// (Figure 5's intersec_col), minus the rows of already-bound vertices.
// It then counts the set, at the last position under CountOnly, or binds
// each member and recurses (Generic Join's extension step).
//
//vs:hotpath
func (e *executor) extend(t int) {
	if e.canceled() {
		return
	}
	n := e.in.NumPatternVertices
	if t == n {
		e.emit()
		return
	}
	// validate() and forEach size every per-position table to
	// NumPatternVertices, so none of these guards ever fire; restating the
	// invariant as uint compares lets the prove pass drop the bounds checks
	// below.
	if uint(t) >= uint(len(e.levels)) ||
		uint(t) >= uint(len(e.in.RowCandidates)) ||
		uint(t) >= uint(len(e.rows)) ||
		uint(t) >= uint(len(e.bound)) || t < 1 {
		return
	}
	lv := &e.levels[t]
	scratch := lv.scratch
	cands := e.in.RowCandidates[t]
	bound, rows := e.bound, e.rows
	c := int(bound[t-1])
	late := lv.late
	switch {
	case len(late) == 0:
		copy(scratch, lv.hoisted)
	case lv.hoisted != nil:
		late[0].M.AndFrom(scratch, lv.hoisted, c)
		late = late[1:]
	default:
		late[0].M.CopyColumn(scratch, c)
		late = late[1:]
	}
	for _, em := range late {
		em.M.AndColumn(scratch, c)
	}
	e.res.Stats.Intersections += int64(len(lv.late))
	// Bijection: clear the rows of already-bound vertices that are among
	// this position's candidates; the hoist cleared those of 0..t-2.
	from := 0
	if lv.hoisted != nil {
		from = t - 1
	}
	for p := from; p < t; p++ {
		clearRow(scratch, lv.rowAt, rows, p)
	}
	if t == n-1 && e.opts.CountOnly {
		// Last position and only the count is needed: popcount the
		// intersection (the paper's aggregation fast path).
		total := 0
		for _, w := range scratch {
			total += bits.OnesCount64(w)
		}
		e.res.Count += int64(total)
		return
	}
	e.hoist(t + 1)
	for wi, word := range scratch {
		for word != 0 {
			tz := bits.TrailingZeros64(word)
			word &= word - 1
			row := wi*64 + tz
			if uint(row) >= uint(len(cands)) {
				break
			}
			bound[t] = cands[row]
			rows[t] = row
			e.extend(t + 1)
			if e.stopped {
				return
			}
		}
	}
}

// clearRow clears from set the row, at the level rowAt belongs to, of
// position p's bound vertex, if it is a candidate there.
func clearRow(set []uint64, rowAt [][]int32, rows []int, p int) {
	if uint(p) >= uint(len(rowAt)) || uint(p) >= uint(len(rows)) {
		return
	}
	at := rowAt[p]
	if i := rows[p]; uint(i) < uint(len(at)) {
		if r := at[i]; r >= 0 {
			if w := uint(r) / 64; w < uint(len(set)) {
				set[w] &^= 1 << (uint(r) % 64)
			}
		}
	}
}

func (e *executor) emit() {
	e.res.Count++
	if !e.opts.CountOnly && !e.fn(e.bound) {
		e.stopped = true
	}
}
