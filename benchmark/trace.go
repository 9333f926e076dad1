package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"time"

	"repro/internal/cypher"
	"repro/internal/engine"
	"repro/internal/exec"
	"repro/internal/graph"
	"repro/internal/mintersect"
	"repro/internal/planner"
	"repro/internal/server"
	"repro/internal/storage"
	"repro/internal/telemetry"
	"repro/internal/vexpand"
	"repro/internal/wire"
)

// The traced pass times each layer from outside: per sample, one call into
// each layer's exported entry point, each call with its own parameter draw
// so it meets the cache state the workload defines. Spans nest logically —
// a child is the call its parent makes internally — not in time.
const (
	lClient = iota + 1
	lSession
	lWireEncode
	lWireDecode
	lParse
	lCypherRun
	lBindPlan
	lEngine
	lPlanner
	lVExpand
	lMIntersect
	lHTTP
	numLayers
)

var layerName = [numLayers]string{
	lClient: "client.query", lSession: "session.run_fetch", lWireEncode: "wire.encode", lWireDecode: "wire.decode",
	lParse: "cypher.parse", lCypherRun: "cypher.run", lBindPlan: "cypher.bind_plan", lEngine: "engine.match",
	lPlanner: "planner.build", lVExpand: "vexpand.expand", lMIntersect: "mintersect.run", lHTTP: "server.http_query",
}

// layerParent is the logical caller of each layer (0 = a root). A sample
// calls parents before children, so a child can name its parent's span.
var layerParent = [numLayers]int{
	lSession: lClient, lWireEncode: lClient, lWireDecode: lClient, lParse: lSession, lCypherRun: lSession,
	lBindPlan: lCypherRun, lEngine: lCypherRun, lPlanner: lEngine, lVExpand: lEngine, lMIntersect: lEngine,
}

// throughCache marks the layers whose call executes a query through the
// engine and therefore its matrix cache.
var throughCache = [numLayers]bool{lClient: true, lSession: true, lCypherRun: true, lEngine: true, lHTTP: true}

// span is one timed call. Spans of one sample share Sample; Parent is the
// ID of the span whose call contains this one in the running program.
type span struct {
	ID      int    `json:"id"`
	Sample  int    `json:"sample"`
	Parent  int    `json:"parent,omitempty"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the pass ends. A nil tracer times
// without recording — the untraced comparison.
type tracer struct {
	t0     time.Time
	spans  []span
	sample int
	latest [numLayers]int // span ID of each layer's latest call in the current sample
}

func (t *tracer) beginSample(i int) {
	t.sample = i
	t.latest = [numLayers]int{}
}

// record closes a call that began at start: it returns the duration in ms
// and, unless t is nil, keeps the span.
func (t *tracer) record(layer int, start time.Time) float64 {
	end := time.Now()
	if t != nil {
		id := len(t.spans) + 1
		t.spans = append(t.spans, span{
			ID: id, Sample: t.sample, Parent: t.latest[layerParent[layer]], Name: layerName[layer],
			StartNs: start.Sub(t.t0).Nanoseconds(), EndNs: end.Sub(t.t0).Nanoseconds(),
		})
		t.latest[layer] = id
	}
	return ms(end.Sub(start))
}

// layerRow is one line of the self-time table.
type layerRow struct {
	Layer  string  `json:"layer"`
	SelfMs float64 `json:"self_ms"`
	Share  float64 `json:"share"` // of the single-client client.query_ms median
	// DeficitMs > 0 flags a layer whose nested calls were measured larger
	// than the layer itself by that much; its self time is clamped to 0.
	DeficitMs float64 `json:"deficit_ms,omitempty"`
}

// traceResult is the traced pass's output for one workload.
type traceResult struct {
	Samples   int                `json:"samples"`
	Streaming bool               `json:"streaming"`
	Kernel    string             `json:"vexpand_kernel"`
	Metrics   map[string]float64 `json:"metrics"`
	Table     []layerRow         `json:"self_time"`
	// PredictedHitRatio is the harness's own model of the matrix cache (a
	// key hits when this pass already sent it through the engine); the
	// observed exec.cache_hit_ratio should agree with it, since the
	// vexpand row of the table is attributed with the same model.
	PredictedHitRatio float64 `json:"predicted_cache_hit_ratio"`
	SizingGuard       string  `json:"sizing_guard"`
	SizingOK          bool    `json:"sizing_ok"`
	Attempted         int     `json:"attempted"`
	Failed            int     `json:"failed"`
	FirstErr          string  `json:"first_error,omitempty"`

	spans []span
}

// Parameter streams other than the load clients' use client indexes far
// from theirs, so no two coincide.
const (
	checkClient = 1000
	traceClient = 2000
)

const (
	minTraceSamples = 30
	maxTraceSamples = 200
)

// expandOp is one distinct expansion of a plan — the workload's own sources
// and determiner, deduplicated as engine.lowerExpands deduplicates them.
type expandOp struct {
	sources []graph.VertexID
	edge    *planner.PlannedEdge
	serves  []int // planned-edge indexes sharing this expansion
}

func distinctExpands(plan *planner.Plan) []expandOp {
	var ops []expandOp
	for _, spec := range plan.Operators() {
		if spec.Kind == "expand" {
			pe := &plan.Edges[spec.Edges[0]]
			ops = append(ops, expandOp{sources: plan.CandList[pe.ExpandFrom], edge: pe, serves: spec.Edges})
		}
	}
	return ops
}

// expandsPerQuery counts the distinct expansions one query of w plans.
func expandsPerQuery(st *stack, w *workload) int {
	plan, err := planner.Build(st.g, w.pattern(idBase, w.Span))
	if err != nil {
		return 1
	}
	return max(len(distinctExpands(plan)), 1)
}

// cacheModel is the harness's outside view of the engine's matrix cache:
// the expansion keys this pass has sent through the engine. The cache's own
// contents are not exported; the model ignores evictions, which is why the
// report prints its prediction beside the observed hit counter.
type cacheModel struct {
	g         *graph.Graph
	sent      map[exec.CacheKey]bool
	ops, hits int
}

func (c *cacheModel) key(op expandOp) exec.CacheKey {
	return exec.NewCacheKey(c.g.Epoch(), op.edge.D, op.sources)
}

// send records that a query with these params is about to run through the
// engine.
func (c *cacheModel) send(w *workload, lo int64) error {
	plan, err := planner.Build(c.g, w.pattern(lo, w.Span))
	if err != nil {
		return err
	}
	for _, op := range distinctExpands(plan) {
		k := c.key(op)
		c.ops++
		if c.sent[k] {
			c.hits++
		}
		c.sent[k] = true
	}
	return nil
}

// pass is the state of one traced pass.
type pass struct {
	st    *stack
	w     *workload
	gens  [numLayers]*paramGen // one parameter stream per layer
	cache cacheModel
	tr    *tracer
	times [numLayers][]float64 // ms per successful call
	res   *traceResult
}

// layerCall is one call into a layer, between begin and end.
type layerCall struct {
	layer int
	lo    int64
	start time.Time
	err   error
}

// begin draws the layer's next parameters and starts the clock. Layers that
// execute a query through the engine tell the cache model first.
func (p *pass) begin(layer int) layerCall {
	c := layerCall{layer: layer, lo: p.gens[layer].next()}
	if throughCache[layer] {
		c.err = p.cache.send(p.w, c.lo)
	}
	c.start = time.Now()
	return c
}

// end stops the clock, records the span, and files the duration or the
// failure. It reports whether the call succeeded.
func (p *pass) end(c layerCall, err error) bool {
	d := p.tr.record(c.layer, c.start)
	if c.err != nil {
		err = c.err
	}
	p.res.Attempted++
	if err != nil {
		p.res.Failed++
		if p.res.FirstErr == "" {
			p.res.FirstErr = fmt.Sprintf("%s lo=%d: %v", layerName[c.layer], c.lo, err)
		}
		return false
	}
	p.times[c.layer] = append(p.times[c.layer], d)
	return true
}

func (p *pass) params(c layerCall) map[string]any { return p.w.params(c.lo, p.w.Span) }

// tracePass runs the single-client layer-by-layer pass against st: at least
// minTraceSamples samples, more while budget lasts.
func tracePass(st *stack, w *workload, seed int64, store *storeInfo, budget time.Duration) (*traceResult, error) {
	ctx := context.Background()
	q, err := cypher.Parse(w.Query)
	if err != nil {
		return nil, err
	}
	streaming := cypher.Streamable(q)
	res := &traceResult{Streaming: streaming, Metrics: map[string]float64{}}
	p := &pass{st: st, w: w, res: res, cache: cacheModel{g: st.g, sent: map[exec.CacheKey]bool{}}}
	for l := range p.gens {
		p.gens[l] = newParamGen(w, st.g.NumVertices(), seed, traceClient+l)
	}

	conn, err := st.dial()
	if err != nil {
		return nil, err
	}
	defer func() { _ = conn.Close() }() // GOODBYE is a courtesy; stack.close reaps the session
	hs := httptest.NewServer(server.NewWithService(st.svc, server.Options{}))
	defer hs.Close()

	// A pooled workload's keys are resident before anything is timed.
	for _, lo := range p.gens[lClient].pool {
		if err := p.cache.send(w, lo); err != nil {
			return nil, err
		}
		if _, err := runQuery(conn, w, lo, w.Span); err != nil {
			return nil, err
		}
	}
	p.cache.ops, p.cache.hits = 0, 0
	hits0, evict0 := telemetry.MatrixCacheHits.Value(), telemetry.MatrixCacheEvictions.Value()

	var untraced, missMs, pairs, matrixBytes, intersections, tuples, encNs, decNs, rowBytes, rowCounts []float64
	p.tr = &tracer{t0: time.Now()}
	for i := 0; (i < minTraceSamples || time.Since(p.tr.t0) < budget) && i < maxTraceSamples; i++ {
		res.Samples++
		p.tr.beginSample(i)

		// The same client call with and without a span around it, in
		// alternating order, gives the tracing overhead.
		for k := 0; k < 2; k++ {
			if traced := k == i%2; traced {
				c := p.begin(lClient)
				_, err := runQuery(conn, w, c.lo, w.Span)
				p.end(c, err)
			} else if lo := p.gens[0].next(); p.cache.send(w, lo) == nil {
				start := time.Now()
				if _, err := runQuery(conn, w, lo, w.Span); err == nil {
					untraced = append(untraced, (*tracer)(nil).record(lClient, start))
				}
			}
		}

		c := p.begin(lSession)
		rows, err := sessionQuery(ctx, st, w, c.lo)
		if p.end(c, err) && len(rows) > 0 {
			if e, d, b, err := wireCodec(p.tr, rows); err == nil {
				encNs, decNs = append(encNs, e), append(decNs, d)
				rowBytes, rowCounts = append(rowBytes, b), append(rowCounts, float64(len(rows)))
			}
		}

		c = p.begin(lParse)
		_, err = cypher.Parse(w.Query)
		p.end(c, err)

		c = p.begin(lCypherRun)
		if streaming {
			err = cypher.Stream(ctx, st.eng, q, p.params(c), func(context.Context, []any) error { return nil })
		} else {
			_, err = cypher.RunContext(ctx, st.eng, q, p.params(c))
		}
		p.end(c, err)

		c = p.begin(lBindPlan)
		_, err = cypher.ExplainQuery(st.eng, q, p.params(c))
		p.end(c, err)

		c = p.begin(lEngine)
		if streaming {
			err = st.eng.MatchForEachOpts(ctx, w.pattern(c.lo, w.Span), engine.MatchOptions{}, func([]graph.VertexID) {})
		} else {
			_, err = st.eng.MatchContext(ctx, w.pattern(c.lo, w.Span), engine.MatchOptions{CountOnly: w.Count})
		}
		p.end(c, err)

		// The innermost layers share one draw: the plan feeds the
		// expansions, whose matrices feed the join.
		c = p.begin(lPlanner)
		plan, err := planner.Build(st.g, w.pattern(c.lo, w.Span))
		if !p.end(c, err) {
			continue
		}
		ops := distinctExpands(plan)
		results := make([]*vexpand.Result, len(ops))
		var all, miss, samplePairs, sampleBytes float64
		for k, op := range ops {
			start := time.Now()
			results[k], err = vexpand.ExpandContext(ctx, st.g, op.sources, op.edge.D, vexpand.Options{Workers: 0})
			d := p.tr.record(lVExpand, start)
			if err != nil {
				break
			}
			all += d
			// Inside a query the engine runs this expansion only when its
			// cache cannot serve the key.
			if !p.cache.sent[p.cache.key(op)] {
				miss += d
			}
			samplePairs += float64(results[k].PairCount())
			sampleBytes += float64(results[k].Stats.MatrixBytes)
			res.Kernel = results[k].Stats.Kernel.String()
		}
		res.Attempted++
		if err != nil {
			res.Failed++
			continue
		}
		p.times[lVExpand] = append(p.times[lVExpand], all)
		missMs = append(missMs, miss)
		pairs, matrixBytes = append(pairs, samplePairs), append(matrixBytes, sampleBytes)

		c = layerCall{layer: lMIntersect, lo: c.lo, start: time.Now()}
		jr, err := runJoin(ctx, st.eng, plan, ops, results, w.Count, streaming)
		if p.end(c, err) {
			intersections, tuples = append(intersections, float64(jr.Stats.Intersections)), append(tuples, float64(jr.Count))
		}

		c = p.begin(lHTTP)
		p.end(c, httpQuery(hs, w, c.lo, streaming))
	}
	res.spans = p.tr.spans

	times := &p.times
	m := res.Metrics
	m["cypher.parse_us"] = median(times[lParse]) * 1000
	m["cypher.bind_plan_us"] = median(times[lBindPlan]) * 1000
	m["planner.build_us"] = median(times[lPlanner]) * 1000
	m["vexpand.expand_ms"] = median(times[lVExpand])
	m["vexpand.pairs"] = median(pairs)
	m["vexpand.matrix_bytes"] = median(matrixBytes)
	m["mintersect.run_ms"] = median(times[lMIntersect])
	m["mintersect.intersections"] = median(intersections)
	m["mintersect.tuples"] = median(tuples)
	m["exec.cache_hit_ratio"] = float64(telemetry.MatrixCacheHits.Value()-hits0) / float64(p.cache.ops)
	m["exec.cache_evictions"] = float64(telemetry.MatrixCacheEvictions.Value() - evict0)
	res.PredictedHitRatio = float64(p.cache.hits) / float64(p.cache.ops)
	// One of the engine's two entry points serves the query; the other
	// metric stays 0 so both names are always reported.
	m["engine.match_ms"], m["engine.foreach_ms"] = median(times[lEngine]), 0
	if streaming {
		m["engine.match_ms"], m["engine.foreach_ms"] = 0, median(times[lEngine])
	}
	m["cypher.run_ms"] = median(times[lCypherRun])
	m["session.run_fetch_ms"] = median(times[lSession])
	m["wire.encode_ns_per_row"] = median(encNs)
	m["wire.decode_ns_per_row"] = median(decNs)
	m["wire.bytes_per_row"] = median(rowBytes)
	m["client.query_ms"] = median(times[lClient])
	m["server.http_query_ms"] = median(times[lHTTP])
	m["storage.write_ms"] = store.WriteMs
	m["storage.bytes_on_disk"] = float64(store.BytesOnDisk)
	var opens []float64
	for i := 0; i < 3; i++ {
		start := time.Now()
		if _, err := storage.Open(store.Dir); err != nil {
			return nil, err
		}
		opens = append(opens, ms(time.Since(start)))
	}
	m["storage.open_ms"] = median(opens)

	wireMs := 0.0
	if len(rowCounts) > 0 {
		wireMs = median(rowCounts) * (m["wire.encode_ns_per_row"] + m["wire.decode_ns_per_row"]) / 1e6
	}
	res.Table = selfTimeTable(m["client.query_ms"], m["session.run_fetch_ms"], wireMs, m["cypher.parse_us"]/1000,
		m["cypher.run_ms"], median(times[lEngine]), m["planner.build_us"]/1000, median(missMs), m["mintersect.run_ms"])
	var sum float64
	for _, r := range res.Table {
		sum += r.SelfMs
	}
	m["trace.unattributed_share"] = math.Abs(m["client.query_ms"]-sum) / m["client.query_ms"]
	m["trace.overhead_share"] = (m["client.query_ms"] - median(untraced)) / median(untraced)
	res.SizingGuard, res.SizingOK = sizingGuard(w, res.Table)

	for name, v := range m {
		if math.IsNaN(v) || math.IsInf(v, 0) { // a layer that never produced a sample
			m[name] = 0
			res.Failed++
			if res.FirstErr == "" {
				res.FirstErr = name + ": no samples"
			}
		}
	}
	return res, nil
}

// selfTimeTable turns the nested medians into per-layer self times. Before
// clamping, the rows sum to client exactly; a deficit says a nested call
// was measured larger than its caller.
func selfTimeTable(client, session, wireMs, parse, cypherRun, engineMs, plannerMs, vexpandMiss, mintersectMs float64) []layerRow {
	row := func(layer string, outer float64, nested ...float64) layerRow {
		self, deficit := selfTime(outer, nested...)
		return layerRow{Layer: layer, SelfMs: self, Share: self / client, DeficitMs: deficit}
	}
	return []layerRow{
		row("client", client, session, wireMs),
		row("wire", wireMs),
		row("session", session, cypherRun, parse),
		row("cypher", cypherRun+parse, engineMs),
		row("engine", engineMs, plannerMs, vexpandMiss, mintersectMs),
		row("planner", plannerMs),
		row("vexpand", vexpandMiss),
		row("mintersect", mintersectMs),
	}
}

// sizingGuard checks that the layers the workload was built to stress own
// a larger share of the traced table than any other layer — or, for a
// workload with no intended dominant layer, that none owns more than half.
func sizingGuard(w *workload, table []layerRow) (string, bool) {
	if len(w.Dominant) == 0 {
		for _, r := range table {
			if r.Share > 0.5 {
				return fmt.Sprintf("%s owns %.0f%% (want no layer above 50%%)", r.Layer, 100*r.Share), false
			}
		}
		return "no layer above 50%", true
	}
	intended := map[string]bool{}
	for _, l := range w.Dominant {
		intended[l] = true
	}
	var want float64
	for _, r := range table {
		if intended[r.Layer] {
			want += r.Share
		}
	}
	names := strings.Join(w.Dominant, "+")
	for _, r := range table {
		if !intended[r.Layer] && r.Share > want {
			return fmt.Sprintf("%s owns %.0f%%, more than %s at %.0f%%", r.Layer, 100*r.Share, names, 100*want), false
		}
	}
	return fmt.Sprintf("%s own %.0f%%, the largest share", names, 100*want), true
}

// runJoin assembles the MIntersect input from the expansion results as the
// engine does (exec.IntersectOp with copy-on-AND) and runs the join the way
// the query's path would: counting, materializing, or streaming.
func runJoin(ctx context.Context, eng *engine.Engine, plan *planner.Plan, ops []expandOp, results []*vexpand.Result, countOnly, streaming bool) (*mintersect.Result, error) {
	n := len(plan.Order)
	rowCands := make([][]graph.VertexID, n)
	for t := 1; t < n; t++ {
		rowCands[t] = plan.CandList[plan.Order[t]]
	}
	iop := &exec.IntersectOp{NumPatternVertices: n, FirstCols: plan.CandList[plan.Order[0]], RowCandidates: rowCands}
	iop.Edges = make([]exec.JoinEdge, len(plan.Edges))
	for k, op := range ops {
		src := &exec.ExpandOp{Result: results[k]}
		for _, ei := range op.serves {
			pe := &plan.Edges[ei]
			iop.Edges[ei] = exec.JoinEdge{EarlierPos: pe.EarlierPos, LaterPos: pe.LaterPos, Src: src}
		}
	}
	in, cloned, err := iop.Assemble(exec.NewQueryContext(ctx, eng.Accountant(), 0))
	defer eng.Accountant().Release(cloned)
	if err != nil {
		return nil, err
	}
	if streaming {
		var jr mintersect.Result
		err := mintersect.ForEachContext(ctx, in, mintersect.Options{}, func([]graph.VertexID) {}, &jr)
		return &jr, err
	}
	return mintersect.RunContext(ctx, in, mintersect.Options{CountOnly: countOnly, Workers: 0})
}

// sessionQuery is the transport-free query path: open a session, Run, Fetch
// to exhaustion.
func sessionQuery(ctx context.Context, st *stack, w *workload, lo int64) ([][]any, error) {
	sess := st.svc.OpenSession("vsledger-trace")
	defer sess.Close()
	cur, err := sess.Run(ctx, w.Query, w.params(lo, w.Span))
	if err != nil {
		return nil, err
	}
	var all [][]any
	for {
		rows, more, err := cur.Fetch(0)
		all = append(all, rows...)
		if err != nil || !more {
			return all, err
		}
	}
}

// wireCodec times wire.AppendRecord and wire.ReadRecord over one reply's
// rows and returns ns per row for each, and the encoded bytes per row.
func wireCodec(tr *tracer, rows [][]any) (encNs, decNs, bytesPerRow float64, err error) {
	frames := make([][]byte, len(rows))
	var total int
	start := time.Now()
	for i, row := range rows {
		if frames[i], err = wire.AppendRecord(nil, row); err != nil {
			return 0, 0, 0, err
		}
		total += len(frames[i])
	}
	enc := tr.record(lWireEncode, start)
	start = time.Now()
	for _, frame := range frames {
		if _, err := wire.ReadRecord(frame); err != nil {
			return 0, 0, 0, err
		}
	}
	dec := tr.record(lWireDecode, start)
	n := float64(len(rows))
	return enc * 1e6 / n, dec * 1e6 / n, float64(total) / n, nil
}

// httpQuery sends the same query through the HTTP/JSON front end and
// decodes every row, as an HTTP client would.
func httpQuery(hs *httptest.Server, w *workload, lo int64, stream bool) error {
	body, err := json.Marshal(map[string]any{"query": w.Query, "params": w.params(lo, w.Span), "stream": stream})
	if err != nil {
		return err
	}
	resp, err := hs.Client().Post(hs.URL+"/query", "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close() //vs:nolint(unchecked-err) read-side close; the decode error is the one that matters
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("http %d: %s", resp.StatusCode, msg)
	}
	if !stream {
		var out struct{ Rows [][]any }
		return json.NewDecoder(resp.Body).Decode(&out)
	}
	// NDJSON: a header, one array per row, a trailer carrying any error.
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var line any
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			return err
		}
		if obj, ok := line.(map[string]any); ok && obj["error"] != nil {
			return fmt.Errorf("http stream: %v", obj["error"])
		}
	}
	return sc.Err()
}
