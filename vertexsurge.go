// Package vertexsurge is a from-scratch Go implementation of VertexSurge,
// the variable-length graph pattern matching (VLGPM) engine of
//
//	Xie, Zhang, Liao, Chen, Jiang, Wu. "VertexSurge: Variable Length
//	Graph Pattern Match on Billion-edge Graphs", ASPLOS 2024.
//
// VertexSurge answers queries like "count all triangles of people from
// three communities connected within 2 hops" or "find every account
// reachable within 3 transfers from a flagged account" — patterns whose
// edges match *variable-length* paths. Its core operator, VExpand, computes
// the reachability bit matrix between a set of source vertices and the
// whole graph using stacked-columnar bit matrices and a Hilbert-ordered
// edge list; its MIntersect operator assembles matched tuples by
// worst-case-optimal intersection of matrix columns.
//
// The top-level entry point is DB:
//
//	db, err := vertexsurge.Generate("LastFM", 1.0)
//	res, err := db.Query(`MATCH (p:SIGA)-[:knows*..3]-(q:SIGA)
//	                      RETURN COUNT(DISTINCT p,q)`, nil)
//
// Graphs can also be built programmatically (NewGraphBuilder), stored to
// and opened from the columnar on-disk format (Save / Open), and queried
// through the typed pattern API (Match, Expand) instead of the Cypher
// subset.
package vertexsurge

import (
	"context"
	"fmt"

	"repro/internal/cypher"
	"repro/internal/datagen"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/pattern"
	"repro/internal/storage"
	"repro/internal/telemetry"
	"repro/internal/vexpand"
)

// Re-exported core types: the typed query API is shared with the internal
// engine so programmatic and Cypher queries compose.
type (
	// Graph is an immutable labeled property graph. What its accessors
	// return is shared with every query and read-only: Label's bitmap,
	// Prop's columns and LabelVertices' list (query plans hand that list out
	// as a candidate list, so sorting or writing it in place corrupts later
	// queries; slices.Clone it first).
	Graph = graph.Graph
	// GraphBuilder assembles a Graph.
	GraphBuilder = graph.Builder
	// VertexID identifies a vertex.
	VertexID = graph.VertexID
	// Direction restricts edge traversal (Forward / Reverse / Both).
	Direction = graph.Direction
	// Determiner is a variable-length path determiner (Definition 2).
	Determiner = pattern.Determiner
	// Pattern is a variable-length graph pattern (Definition 3).
	Pattern = pattern.Pattern
	// PatternVertex is one pattern vertex with its constraints.
	PatternVertex = pattern.Vertex
	// PatternEdge is one pattern edge with its determiner.
	PatternEdge = pattern.Edge
	// MatchResult holds matched tuples from a pattern query.
	MatchResult = engine.MatchResult
	// QueryResult is a Cypher query's output table.
	QueryResult = cypher.Result
	// QuerySpan is one node of the per-operator span tree returned by
	// PROFILE queries (QueryResult.Profile).
	QuerySpan = telemetry.SpanSnapshot
	// Analysis is an EXPLAIN ANALYZE result: per-operator rows joining
	// the planner's estimates against measured cardinalities and times.
	Analysis = engine.Analysis
	// AnalyzedOp is one operator row of an Analysis.
	AnalyzedOp = engine.AnalyzedOp
	// Timings is the per-stage execution breakdown.
	Timings = engine.Timings
	// Reachability is a VExpand result: the reachability matrix between
	// sources and all vertices.
	Reachability = vexpand.Result
	// Kernel selects a VExpand kernel variant.
	Kernel = vexpand.Kernel
	// Column is a typed columnar vertex property.
	Column = graph.Column
	// Int64Column, Float64Column, StringColumn, and BoolColumn are the
	// supported property column types.
	Int64Column   = graph.Int64Column
	Float64Column = graph.Float64Column
	StringColumn  = graph.StringColumn
	BoolColumn    = graph.BoolColumn
)

// Traversal directions.
const (
	Forward = graph.Forward
	Reverse = graph.Reverse
	Both    = graph.Both
)

// Path types for determiners.
const (
	Any      = pattern.Any
	Shortest = pattern.Shortest
)

// Unbounded as a Determiner's KMax means "no maximum length".
const Unbounded = pattern.Unbounded

// VExpand kernel variants (the Figure 9 ablation ladder). The former
// KernelPrefetch rung is gone: its lookahead touch was a load the compiler
// discards, so it measured the same loop as KernelHilbert plus a branch.
const (
	KernelAuto        = vexpand.Auto
	KernelStrawman    = vexpand.Strawman
	KernelColumnMajor = vexpand.ColumnMajor
	KernelSIMD        = vexpand.SIMD
	KernelHilbert     = vexpand.Hilbert
	KernelBFS         = vexpand.BFS
)

// DefaultCacheBytes is the reachability-matrix cache size a DB enables by
// default (see Options.CacheBytes).
const DefaultCacheBytes = engine.DefaultCacheBytes

// Options configures a DB.
type Options struct {
	// Workers bounds intra-query parallelism; 0 = GOMAXPROCS. Independent
	// expansions of one query are also scheduled concurrently within this
	// bound.
	Workers int
	// Kernel pins the VExpand kernel; KernelAuto by default.
	Kernel Kernel
	// CacheBytes bounds the engine-level reachability-matrix cache that
	// answers repeated expansions across queries. 0 means DefaultCacheBytes
	// (the cache is ON by default at this layer — a production DB serves
	// repeated query shapes); < 0 disables it.
	CacheBytes int64
	// MemoryBudget caps live intermediate bytes (matrices under expansion,
	// cache residency, join-time clones) across all concurrent queries.
	// 0 = unlimited.
	MemoryBudget int64
}

// DB is a read-only VLGPM query engine over one graph.
type DB struct {
	g   *graph.Graph
	eng *engine.Engine
}

// NewGraphBuilder returns a builder for a graph with n vertices.
func NewGraphBuilder(n int) *GraphBuilder { return graph.NewBuilder(n) }

// FromGraph wraps an already-built graph in a DB.
func FromGraph(g *Graph, opts Options) *DB {
	cache := opts.CacheBytes
	switch {
	case cache == 0:
		cache = DefaultCacheBytes
	case cache < 0:
		cache = 0 // engine.Options semantics: 0 disables
	}
	return &DB{g: g, eng: engine.New(g, engine.Options{
		Workers:      opts.Workers,
		Kernel:       opts.Kernel,
		CacheBytes:   cache,
		MemoryBudget: opts.MemoryBudget,
	})}
}

// Open loads a graph from its on-disk columnar directory (§5.3 format).
func Open(dir string, opts Options) (*DB, error) {
	g, err := storage.Open(dir)
	if err != nil {
		return nil, err
	}
	return FromGraph(g, opts), nil
}

// Generate builds a synthetic stand-in for one of the paper's Table-1
// datasets at the given scale (1.0 = the paper's size); see
// internal/datagen for the generators and DESIGN.md for the substitution
// rationale. Valid names: LastFM, Epinions, LDBC-SN-SF100, Rabobank,
// LDBC-SN-SF1000, LiveJournal, LDBC-FinBench-SF10, Twitter2010.
func Generate(name string, scale float64) (*DB, error) {
	ds, err := datagen.Generate(name, scale)
	if err != nil {
		return nil, err
	}
	return FromGraph(ds.Graph, Options{}), nil
}

// Graph returns the underlying graph.
func (db *DB) Graph() *Graph { return db.g }

// Engine exposes the execution engine, including the twelve §6.2
// evaluation queries (Case1 … Case12) and operator-level entry points.
func (db *DB) Engine() *engine.Engine { return db.eng }

// Save writes the graph to dir in the columnar on-disk format.
func (db *DB) Save(dir string) error { return storage.Write(dir, db.g) }

// Query parses and executes a query in the supported openCypher subset
// (§2.2): MATCH with variable-length relationships, WHERE, shortestPath,
// UNWIND, RETURN with COUNT/SUM/AVG/MIN/MAX([DISTINCT] …), ORDER BY, LIMIT.
// Aggregates group by the plain RETURN items over every matched tuple of
// every UNWIND value, and a key-less aggregate returns one row. A PROFILE prefix
// also fills QueryResult.Profile with the per-operator span tree; EXPLAIN
// fills QueryResult.Plan without executing; EXPLAIN ANALYZE fills
// QueryResult.Analysis with the estimate-vs-actual operator table. The
// former DB.Explain, DB.ExplainAnalyze and DB.ExplainAnalyzeContext are
// gone: use Query("EXPLAIN …") and Query[Context]("EXPLAIN ANALYZE …"),
// which, unlike those methods, run registered (SHOW QUERIES, KILL).
func (db *DB) Query(src string, params map[string]any) (*QueryResult, error) {
	return db.QueryContext(context.Background(), src, params)
}

// QueryContext is Query with context propagation: a context carrying a
// telemetry trace collects one span per operator call under it.
func (db *DB) QueryContext(ctx context.Context, src string, params map[string]any) (*QueryResult, error) {
	q, err := cypher.Parse(src)
	if err != nil {
		return nil, err
	}
	return cypher.RunContext(ctx, db.eng, q, params)
}

// Match executes a typed variable-length graph pattern and returns the
// distinct matched vertex tuples.
func (db *DB) Match(pat *Pattern) (*MatchResult, error) {
	return db.eng.Match(pat, engine.MatchOptions{})
}

// MatchCount counts a pattern's distinct matches without materializing
// them (the §5.1 counting fast path).
func (db *DB) MatchCount(pat *Pattern) (int64, error) {
	res, err := db.eng.Match(pat, engine.MatchOptions{CountOnly: true})
	if err != nil {
		return 0, err
	}
	return res.Count, nil
}

// Expand runs the VExpand operator from the given sources under d and
// returns the reachability matrix (rows = sources, columns = vertices).
// keepPerStep retains per-distance matrices for MinLength queries. The
// expansion's matrices count against the DB's memory budget.
func (db *DB) Expand(sources []VertexID, d Determiner, keepPerStep bool) (*Reachability, error) {
	return db.eng.Expand(sources, d, keepPerStep)
}

// ShortestPathLength returns the shortest-path length from src to dst over
// the given edge labels, or -1 when unreachable.
func (db *DB) ShortestPathLength(src, dst VertexID, edgeLabels []string, dir Direction) (int, error) {
	return db.eng.ShortestPathLength(context.Background(), src, dst, edgeLabels, dir, Unbounded)
}

// VertexByID resolves an int64 "id" property value to a vertex.
func (db *DB) VertexByID(id int64) (VertexID, error) {
	v, ok := db.g.FindByInt64("id", id)
	if !ok {
		return 0, fmt.Errorf("vertexsurge: no vertex with id %d", id)
	}
	return v, nil
}

// MatchForEach streams every distinct matched tuple to fn (in pattern
// declaration order) without materializing the full result set. The tuple
// slice is reused between calls — copy it to retain it.
func (db *DB) MatchForEach(pat *Pattern, fn func(tuple []VertexID)) error {
	return db.eng.MatchForEachOpts(context.Background(), pat, engine.MatchOptions{}, fn)
}
