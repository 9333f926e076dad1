package cypher

import (
	"fmt"
	"strconv"

	"repro/internal/pattern"
)

// Parse parses a query in the supported openCypher subset.
func Parse(src string) (*Query, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	q, err := p.parseQuery()
	if err != nil {
		return nil, err
	}
	if err := q.validate(); err != nil {
		return nil, err
	}
	q.Raw = src
	return q, nil
}

type parser struct {
	toks []token
	pos  int
}

func (p *parser) peek() token { return p.toks[p.pos] }

func (p *parser) next() token {
	t := p.toks[p.pos]
	if t.kind != tokEOF {
		p.pos++
	}
	return t
}

func (p *parser) accept(k tokenKind) bool {
	if p.peek().kind == k {
		p.next()
		return true
	}
	return false
}

func (p *parser) acceptKeyword(kw string) bool {
	t := p.peek()
	if t.kind == tokKeyword && t.text == kw {
		p.next()
		return true
	}
	return false
}

func (p *parser) expect(k tokenKind, what string) (token, error) {
	t := p.next()
	if t.kind != k {
		return t, fmt.Errorf("cypher: expected %s, got %s at offset %d", what, t, t.pos)
	}
	return t, nil
}

func (p *parser) expectKeyword(kw string) error {
	t := p.next()
	if t.kind != tokKeyword || t.text != kw {
		return fmt.Errorf("cypher: expected %s, got %s at offset %d", kw, t, t.pos)
	}
	return nil
}

func (p *parser) parseQuery() (*Query, error) {
	q := &Query{}
	// EXPLAIN <query> renders the plan without executing; EXPLAIN
	// ANALYZE <query> executes with tracing forced on and returns the
	// estimate-vs-actual operator table.
	if p.acceptKeyword("EXPLAIN") {
		q.Explain = true
		q.Analyze = p.acceptKeyword("ANALYZE")
	}
	// PROFILE <query>: execute normally but collect and return the
	// per-operator span tree (Result.Profile).
	if p.acceptKeyword("PROFILE") {
		if q.Explain {
			return nil, fmt.Errorf("cypher: EXPLAIN and PROFILE cannot be combined")
		}
		q.Profile = true
	}
	// UNWIND $param AS alias
	if p.acceptKeyword("UNWIND") {
		t, err := p.expect(tokParam, "parameter after UNWIND")
		if err != nil {
			return nil, err
		}
		if err := p.expectKeyword("AS"); err != nil {
			return nil, err
		}
		alias, err := p.expect(tokIdent, "alias after AS")
		if err != nil {
			return nil, err
		}
		q.Unwind = &Unwind{Param: t.text, Alias: alias.text}
	}

	// One or more MATCH clauses, each with comma-separated parts,
	// optionally interleaved with WHERE.
	sawMatch := false
	for {
		if p.acceptKeyword("MATCH") {
			sawMatch = true
			for {
				part, err := p.parsePatternPart()
				if err != nil {
					return nil, err
				}
				q.Parts = append(q.Parts, part)
				if !p.accept(tokComma) {
					break
				}
			}
			continue
		}
		if p.acceptKeyword("WHERE") {
			for {
				pred, err := p.parsePredicate()
				if err != nil {
					return nil, err
				}
				q.Where = append(q.Where, pred)
				if !p.acceptKeyword("AND") {
					break
				}
			}
			continue
		}
		break
	}
	if !sawMatch {
		return nil, fmt.Errorf("cypher: expected MATCH, got %s", p.peek())
	}

	// Optional WITH DISTINCT vars — the paper's Case 6 writes
	// `WITH DISTINCT a,b RETURN COUNT(*)`; we treat it as
	// RETURN COUNT(DISTINCT a,b).
	var withVars []Expr
	if p.acceptKeyword("WITH") {
		if !p.acceptKeyword("DISTINCT") {
			return nil, fmt.Errorf("cypher: only WITH DISTINCT is supported")
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			withVars = append(withVars, e)
			if !p.accept(tokComma) {
				break
			}
		}
	}

	if err := p.expectKeyword("RETURN"); err != nil {
		return nil, err
	}
	topDistinct := p.acceptKeyword("DISTINCT")
	for {
		item, err := p.parseReturnItem(withVars)
		if err != nil {
			return nil, err
		}
		if topDistinct && item.Agg == "" {
			item.Distinct = true
		}
		q.Return = append(q.Return, item)
		if !p.accept(tokComma) {
			break
		}
	}

	if p.acceptKeyword("ORDER") {
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			ref, err := p.expect(tokIdent, "ORDER BY column")
			if err != nil {
				return nil, err
			}
			key := OrderKey{Ref: ref.text}
			if p.acceptKeyword("DESC") {
				key.Desc = true
			} else {
				p.acceptKeyword("ASC")
			}
			q.OrderBy = append(q.OrderBy, key)
			if !p.accept(tokComma) {
				break
			}
		}
	}
	if p.acceptKeyword("LIMIT") {
		t, err := p.expect(tokInt, "LIMIT count")
		if err != nil {
			return nil, err
		}
		n, err := strconv.Atoi(t.text)
		if err != nil || n < 0 {
			return nil, fmt.Errorf("cypher: bad LIMIT %q", t.text)
		}
		q.Limit = n
	}
	p.accept(tokSemicolon)
	if t := p.peek(); t.kind != tokEOF {
		return nil, fmt.Errorf("cypher: trailing input at %s", t)
	}
	return q, nil
}

// parsePatternPart parses `[var =] [shortestPath(] (n)-[r]-(m)… [)]`.
func (p *parser) parsePatternPart() (*PatternPart, error) {
	part := &PatternPart{}
	// Optional `var =` prefix.
	if p.peek().kind == tokIdent && p.toks[p.pos+1].kind == tokEq {
		part.PathVar = p.next().text
		p.next() // '='
	}
	closing := false
	if p.acceptKeyword("SHORTESTPATH") {
		part.Shortest = true
		if _, err := p.expect(tokLParen, "( after shortestPath"); err != nil {
			return nil, err
		}
		closing = true
	}
	node, err := p.parseNode()
	if err != nil {
		return nil, err
	}
	part.Nodes = append(part.Nodes, node)
	for p.peek().kind == tokLt || p.peek().kind == tokDash {
		rel, err := p.parseRel()
		if err != nil {
			return nil, err
		}
		node, err := p.parseNode()
		if err != nil {
			return nil, err
		}
		part.Rels = append(part.Rels, rel)
		part.Nodes = append(part.Nodes, node)
	}
	if closing {
		if _, err := p.expect(tokRParen, ") closing shortestPath"); err != nil {
			return nil, err
		}
	}
	return part, nil
}

func (p *parser) parseNode() (*NodePattern, error) {
	if _, err := p.expect(tokLParen, "( starting node pattern"); err != nil {
		return nil, err
	}
	n := &NodePattern{Props: map[string]Literal{}}
	if p.peek().kind == tokIdent {
		n.Var = p.next().text
	}
	for p.accept(tokColon) {
		t, err := p.expect(tokIdent, "label name")
		if err != nil {
			return nil, err
		}
		n.Labels = append(n.Labels, t.text)
	}
	if err := p.parseProps(&n.Props); err != nil {
		return nil, err
	}
	if _, err := p.expect(tokRParen, ") closing node pattern"); err != nil {
		return nil, err
	}
	return n, nil
}

// parseRel parses `<-[...]-`, `-[...]->`, or `-[...]-` (and bare `--`).
func (p *parser) parseRel() (*RelPattern, error) {
	r := &RelPattern{KMin: 1, KMax: 1}
	if p.accept(tokLt) {
		r.ArrowLeft = true
	}
	if _, err := p.expect(tokDash, "- in relationship"); err != nil {
		return nil, err
	}
	if p.accept(tokLBracket) {
		// Optional relationship variable, referenceable by length().
		if p.peek().kind == tokIdent {
			r.Var = p.next().text
		}
		if p.accept(tokColon) {
			for {
				t, err := p.expect(tokIdent, "relationship type")
				if err != nil {
					return nil, err
				}
				r.Types = append(r.Types, t.text)
				if !p.accept(tokPipe) {
					break
				}
			}
		}
		if err := p.parseProps(&r.Props); err != nil {
			return nil, err
		}
		if p.accept(tokStar) {
			// *        → 1..∞
			// *3       → 3..3
			// *..5     → 1..5
			// *2..     → 2..∞
			// *2..5    → 2..5
			r.KMin, r.KMax = 1, pattern.Unbounded
			if p.peek().kind == tokInt {
				n, _ := strconv.Atoi(p.next().text)
				r.KMin = n
				r.KMax = n
			}
			if p.accept(tokDotDot) {
				r.KMax = pattern.Unbounded
				if p.peek().kind == tokInt {
					n, _ := strconv.Atoi(p.next().text)
					r.KMax = n
				}
			}
		}
		if err := p.parseProps(&r.Props); err != nil {
			return nil, err
		}
		if _, err := p.expect(tokRBracket, "] closing relationship"); err != nil {
			return nil, err
		}
		if _, err := p.expect(tokDash, "- after relationship"); err != nil {
			return nil, err
		}
	}
	if p.accept(tokGt) {
		r.ArrowRight = true
	}
	if r.ArrowLeft && r.ArrowRight {
		return nil, fmt.Errorf("cypher: relationship with both arrow directions")
	}
	return r, nil
}

// parseProps parses an optional `{key: value, …}` map of a node or a
// relationship pattern (the latter accepts it both before and after the `*`
// bounds) into *props, allocating the map on first use.
func (p *parser) parseProps(props *map[string]Literal) error {
	if !p.accept(tokLBrace) {
		return nil
	}
	if *props == nil {
		*props = map[string]Literal{}
	}
	for {
		key, err := p.expect(tokIdent, "property name")
		if err != nil {
			return err
		}
		if _, err := p.expect(tokColon, ": in property map"); err != nil {
			return err
		}
		lit, err := p.parseLiteral()
		if err != nil {
			return err
		}
		(*props)[key.text] = lit
		if !p.accept(tokComma) {
			break
		}
	}
	_, err := p.expect(tokRBrace, "} closing property map")
	return err
}

func (p *parser) parseLiteral() (Literal, error) {
	t := p.next()
	switch t.kind {
	case tokInt:
		n, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return Literal{}, fmt.Errorf("cypher: bad integer %q", t.text)
		}
		return Literal{Kind: LitInt, Int: n}, nil
	case tokString:
		return Literal{Kind: LitString, Str: t.text}, nil
	case tokParam:
		return Literal{Kind: LitParam, Param: t.text}, nil
	case tokIdent:
		// A bare identifier in a value position references an UNWIND
		// alias (Case 5's `{id: pid}`); it resolves like a parameter.
		return Literal{Kind: LitParam, Param: t.text}, nil
	case tokKeyword:
		switch t.text {
		case "TRUE":
			return Literal{Kind: LitBool, Bool: true}, nil
		case "FALSE":
			return Literal{Kind: LitBool, Bool: false}, nil
		}
	}
	return Literal{}, fmt.Errorf("cypher: expected literal, got %s at offset %d", t, t.pos)
}

// parsePredicate parses one WHERE conjunct:
// [NOT] var:Label | var.prop = literal | var.prop (boolean shorthand).
func (p *parser) parsePredicate() (Predicate, error) {
	neg := p.acceptKeyword("NOT")
	v, err := p.expect(tokIdent, "variable in predicate")
	if err != nil {
		return Predicate{}, err
	}
	if p.accept(tokColon) {
		l, err := p.expect(tokIdent, "label in predicate")
		if err != nil {
			return Predicate{}, err
		}
		return Predicate{Kind: PredHasLabel, Var: v.text, Label: l.text, Negated: neg}, nil
	}
	if _, err := p.expect(tokDot, ". in property predicate"); err != nil {
		return Predicate{}, err
	}
	prop, err := p.expect(tokIdent, "property name")
	if err != nil {
		return Predicate{}, err
	}
	pred := Predicate{Kind: PredPropEq, Var: v.text, Prop: prop.text, Negated: neg}
	op, hasOp := p.parseCmpOp()
	if hasOp {
		pred.Op = op
		lit, err := p.parseLiteral()
		if err != nil {
			return Predicate{}, err
		}
		pred.Value = lit
	} else {
		// Boolean shorthand: `WHERE medium.isBlocked`.
		pred.Op = pattern.CmpEq
		pred.Value = Literal{Kind: LitBool, Bool: true}
	}
	return pred, nil
}

// parseCmpOp consumes a comparison operator (=, <>, <, <=, >, >=) if one
// is next.
func (p *parser) parseCmpOp() (pattern.CmpOp, bool) {
	switch {
	case p.accept(tokEq):
		return pattern.CmpEq, true
	case p.accept(tokLt):
		if p.accept(tokGt) {
			return pattern.CmpNe, true
		}
		if p.accept(tokEq) {
			return pattern.CmpLe, true
		}
		return pattern.CmpLt, true
	case p.accept(tokGt):
		if p.accept(tokEq) {
			return pattern.CmpGe, true
		}
		return pattern.CmpGt, true
	default:
		return pattern.CmpEq, false
	}
}

// parseExpr parses var, var.prop, or length(pathVar).
func (p *parser) parseExpr() (Expr, error) {
	if p.acceptKeyword("LENGTH") {
		if _, err := p.expect(tokLParen, "( after length"); err != nil {
			return Expr{}, err
		}
		v, err := p.expect(tokIdent, "path variable")
		if err != nil {
			return Expr{}, err
		}
		if _, err := p.expect(tokRParen, ") closing length"); err != nil {
			return Expr{}, err
		}
		return Expr{IsLength: true, PathVar: v.text}, nil
	}
	v, err := p.expect(tokIdent, "variable")
	if err != nil {
		return Expr{}, err
	}
	e := Expr{Var: v.text}
	if p.accept(tokDot) {
		prop, err := p.expect(tokIdent, "property name")
		if err != nil {
			return Expr{}, err
		}
		e.Prop = prop.text
	}
	return e, nil
}

// parseReturnItem parses one RETURN projection. withVars, when non-empty,
// expands COUNT(*) into COUNT(DISTINCT withVars...).
func (p *parser) parseReturnItem(withVars []Expr) (ReturnItem, error) {
	item := ReturnItem{}
	t := p.peek()
	aggs := map[string]string{"COUNT": "count", "SUM": "sum", "MIN": "min", "MAX": "max", "AVG": "avg"}
	if t.kind == tokKeyword && aggs[t.text] != "" {
		p.next()
		item.Agg = aggs[t.text]
		if _, err := p.expect(tokLParen, "( after aggregate"); err != nil {
			return item, err
		}
		if item.Agg == "count" && p.accept(tokStar) {
			// COUNT(*) after WITH DISTINCT a,b counts the distinct rows.
			if len(withVars) == 0 {
				return item, fmt.Errorf("cypher: COUNT(*) requires a preceding WITH DISTINCT")
			}
			item.Distinct = true
			item.Args = withVars
		} else {
			if p.acceptKeyword("DISTINCT") {
				item.Distinct = true
			}
			for {
				e, err := p.parseExpr()
				if err != nil {
					return item, err
				}
				item.Args = append(item.Args, e)
				if !p.accept(tokComma) {
					break
				}
			}
		}
		if _, err := p.expect(tokRParen, ") closing aggregate"); err != nil {
			return item, err
		}
	} else {
		if p.acceptKeyword("DISTINCT") {
			item.Distinct = true
		}
		e, err := p.parseExpr()
		if err != nil {
			return item, err
		}
		item.Args = []Expr{e}
	}
	if p.acceptKeyword("AS") {
		a, err := p.expect(tokIdent, "alias")
		if err != nil {
			return item, err
		}
		item.Alias = a.text
	}
	return item, nil
}
