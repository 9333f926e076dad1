package cypher

import (
	"fmt"
	"slices"

	"repro/internal/pattern"
)

// Query is a parsed query.
type Query struct {
	// Raw is the original query text as given to Parse — the registry's
	// display string for SHOW QUERIES and /debug/queries. Empty for
	// programmatically constructed Query values.
	Raw string
	// Profile marks a `PROFILE <query>`: execute and attach the
	// per-operator span tree to the result.
	Profile bool
	// Explain marks an `EXPLAIN <query>`: render the plan without
	// executing (Result.Plan).
	Explain bool
	// Analyze marks `EXPLAIN ANALYZE <query>`: execute with tracing
	// forced on and attach the estimate-vs-actual operator table
	// (Result.Analysis). Only valid with Explain.
	Analyze bool
	// Unwind, when present, iterates a list parameter binding Alias per
	// iteration (Case 5's UNWIND $person_ids AS pid).
	Unwind *Unwind
	// Parts are the comma- and clause-separated pattern parts of every
	// MATCH (single-MATCH commas and repeated MATCH clauses are
	// equivalent here: walk semantics has no relationship-uniqueness rule
	// to scope, §2.2).
	Parts []*PatternPart
	// Where lists AND-ed predicates.
	Where []Predicate
	// Return lists the projection items.
	Return []ReturnItem
	// OrderBy lists sort keys, each naming an output column (Columns).
	OrderBy []OrderKey
	// Limit caps rows; 0 = unlimited.
	Limit int
}

// Unwind is UNWIND $param AS alias.
type Unwind struct {
	Param string
	Alias string
}

// PatternPart is one node-rel-node-… chain, optionally a named
// shortestPath.
type PatternPart struct {
	// PathVar names the path when the part was `p = …`.
	PathVar string
	// Shortest marks `shortestPath(…)`.
	Shortest bool
	Nodes    []*NodePattern
	Rels     []*RelPattern // len(Rels) == len(Nodes)-1
}

// NodePattern is `(v:Label1:Label2 {prop: value})`.
type NodePattern struct {
	Var    string
	Labels []string
	Props  map[string]Literal
}

// RelPattern is `-[v:t1|t2*min..max]->` in any direction combination.
type RelPattern struct {
	// Var names the relationship when written `[p:t*1..3]`; it can be
	// referenced by length(p).
	Var   string
	Types []string
	// Props constrains edge properties: `[:transfer {flagged: true}]`.
	Props map[string]Literal
	// KMin and KMax give the hop bounds; a fixed single hop is (1, 1);
	// `*` with no upper bound yields KMax == pattern.Unbounded.
	KMin, KMax int
	// ArrowLeft/ArrowRight record `<-…-` and `-…->`; neither set means
	// undirected.
	ArrowLeft, ArrowRight bool
}

// LiteralKind tags Literal.
type LiteralKind int

const (
	// LitInt is an integer literal.
	LitInt LiteralKind = iota
	// LitString is a string literal.
	LitString
	// LitBool is true/false.
	LitBool
	// LitParam is a $parameter reference resolved at execution.
	LitParam
)

// Literal is a literal or parameter reference.
type Literal struct {
	Kind  LiteralKind
	Int   int64
	Str   string
	Bool  bool
	Param string
}

// Resolve returns the literal's value, resolving parameters against params.
func (l Literal) Resolve(params map[string]any) (any, error) {
	switch l.Kind {
	case LitInt:
		return l.Int, nil
	case LitString:
		return l.Str, nil
	case LitBool:
		return l.Bool, nil
	case LitParam:
		v, ok := params[l.Param]
		if !ok {
			return nil, fmt.Errorf("cypher: missing parameter $%s", l.Param)
		}
		return v, nil
	default:
		return nil, fmt.Errorf("cypher: bad literal kind %d", l.Kind)
	}
}

// PredicateKind tags Predicate.
type PredicateKind int

const (
	// PredHasLabel is `v:Label`, possibly negated (`NOT v:Label`).
	PredHasLabel PredicateKind = iota
	// PredPropEq is `v.prop = literal`.
	PredPropEq
)

// Predicate is one WHERE conjunct.
type Predicate struct {
	Kind  PredicateKind
	Var   string
	Label string
	Prop  string
	// Op is the comparison operator for PredPropEq predicates
	// (=, <>, <, <=, >, >=).
	Op      pattern.CmpOp
	Value   Literal
	Negated bool
}

// Expr is a projectable expression: a variable, a property access, or
// length(pathVar).
type Expr struct {
	Var      string
	Prop     string // empty = the vertex itself
	IsLength bool   // length(PathVar)
	PathVar  string
}

// String renders the expression for column naming.
func (e Expr) String() string {
	if e.IsLength {
		return "length(" + e.PathVar + ")"
	}
	if e.Prop != "" {
		return e.Var + "." + e.Prop
	}
	return e.Var
}

// ReturnItem is one projection: optionally aggregated, optionally aliased.
type ReturnItem struct {
	// Agg is "", "count", "sum", "min", "max", or "avg".
	Agg string
	// Distinct applies inside the aggregate (COUNT(DISTINCT …)) or, with
	// no aggregate, to the whole row set (RETURN DISTINCT …).
	Distinct bool
	Args     []Expr
	Alias    string
}

// Column returns the output column name.
func (r ReturnItem) Column() string {
	if r.Alias != "" {
		return r.Alias
	}
	if r.Agg != "" {
		s := r.Agg + "("
		if r.Distinct {
			s += "DISTINCT "
		}
		for i, a := range r.Args {
			if i > 0 {
				s += ","
			}
			s += a.String()
		}
		return s + ")"
	}
	return r.Args[0].String()
}

// OrderKey is one ORDER BY key, matched against output column names.
type OrderKey struct {
	Ref  string
	Desc bool
}

// validate performs structural checks shared by every execution path.
func (q *Query) validate() error {
	if len(q.Parts) == 0 {
		return fmt.Errorf("cypher: query has no MATCH clause")
	}
	if len(q.Return) == 0 {
		return fmt.Errorf("cypher: query has no RETURN items")
	}
	for _, p := range q.Parts {
		if len(p.Nodes) == 0 {
			return fmt.Errorf("cypher: empty pattern part")
		}
		if len(p.Rels) != len(p.Nodes)-1 {
			return fmt.Errorf("cypher: malformed pattern part")
		}
		for _, r := range p.Rels {
			if r.KMin < 0 || (r.KMax != pattern.Unbounded && r.KMax < r.KMin) {
				return fmt.Errorf("cypher: invalid hop bounds %d..%d", r.KMin, r.KMax)
			}
		}
	}
	cols := Columns(q)
	for _, key := range q.OrderBy {
		if !slices.Contains(cols, key.Ref) {
			return fmt.Errorf("cypher: ORDER BY references unknown column %q", key.Ref)
		}
	}
	return nil
}
