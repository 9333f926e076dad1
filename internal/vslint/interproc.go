package vslint

import (
	"fmt"
	"go/token"
	"strings"
)

// This file orchestrates a vslint run: the per-package analyzers, then the
// whole-program call graph and bottom-up function summaries, then the
// module-level analyzers that need cross-function facts (lock-order,
// hotpath-closure), then suppression and the stale-directive audit.

// ModuleAnalyzer is one check that runs over the whole module at once.
type ModuleAnalyzer struct {
	Name string
	Doc  string
	Run  func(*ModulePass)
}

// ModulePass carries the module-wide state through one analyzer run.
type ModulePass struct {
	Mod      *Module
	Graph    *CallGraph
	Sums     *Summaries
	Baseline *CompilerBaseline

	analyzer string
	report   func(Finding)
	passes   map[*Package]*Pass
}

// passFor returns a per-package Pass sharing mp's reporting sink, for the
// module analyzers that reuse the intraprocedural machinery.
func (mp *ModulePass) passFor(pkg *Package) *Pass {
	if p, ok := mp.passes[pkg]; ok {
		p.analyzer = mp.analyzer // the cache outlives one analyzer's run
		return p
	}
	p := &Pass{
		Fset:     pkg.Fset,
		Files:    pkg.Files,
		Pkg:      pkg.Types,
		Info:     pkg.Info,
		analyzer: mp.analyzer,
		report:   mp.report,
	}
	mp.passes[pkg] = p
	return p
}

// Reportf records a finding. approx marks a conclusion that rests on a
// conservative dispatch guess (interface or signature-matched callee);
// approximate findings are demoted to info severity so a guessed edge
// never hard-fails CI.
func (mp *ModulePass) Reportf(pos token.Pos, approx bool, format string, args ...any) {
	mp.reportAt(mp.Mod.Fset.Position(pos), approx, format, args...)
}

// reportAt is Reportf for an already-resolved position.
func (mp *ModulePass) reportAt(pos token.Position, approx bool, format string, args ...any) {
	sev := SeverityError
	if approx {
		sev = SeverityInfo
	}
	mp.report(Finding{
		Analyzer: mp.analyzer,
		Pos:      pos,
		Message:  fmt.Sprintf(format, args...),
		Severity: sev,
		Approx:   approx,
	})
}

// AllInterproc returns the module-level analyzers in reporting order.
func AllInterproc() []*ModuleAnalyzer {
	return []*ModuleAnalyzer{LockOrder, HotpathClosure}
}

// Options configures one CheckModule run.
type Options struct {
	// Baseline seeds the hotpath-closure analyzer with the compiler gate's
	// escape counts (a function the escape analysis proves clean is not
	// reported even if it looks allocating syntactically).
	Baseline *CompilerBaseline
}

// Result is the outcome of one CheckModule run.
type Result struct {
	Findings []Finding
}

// CheckModule analyzes mod and reports findings positioned inside pkgs
// (the command-line match set). Suppressions are collected module-wide;
// findings at one position from several analyzers are merged into one,
// and every //vs:nolint in pkgs that suppressed nothing is reported stale.
func CheckModule(mod *Module, pkgs []*Package, opts Options) *Result {
	var raw []Finding

	for _, pkg := range pkgs {
		pass := &Pass{
			Fset:  pkg.Fset,
			Files: pkg.Files,
			Pkg:   pkg.Types,
			Info:  pkg.Info,
		}
		pass.report = func(f Finding) { raw = append(raw, f) }
		for _, a := range All() {
			pass.analyzer = a.Name
			a.Run(pass)
		}
	}

	graph := BuildCallGraph(mod)
	sums := ComputeSummaries(graph)

	// Module findings land anywhere in the module; keep the ones in the
	// matched packages.
	matched := map[string]bool{}
	for _, pkg := range pkgs {
		matched[pkg.Dir] = true
	}
	mp := &ModulePass{
		Mod:      mod,
		Graph:    graph,
		Sums:     sums,
		Baseline: opts.Baseline,
		passes:   map[*Package]*Pass{},
	}
	mp.report = func(f Finding) {
		if matched[dirOf(f.Pos.Filename)] {
			raw = append(raw, f)
		}
	}
	for _, a := range AllInterproc() {
		mp.analyzer = a.Name
		a.Run(mp)
	}

	// Module-wide suppressions: a //vs:nolint in any package applies, so a
	// justified suppression in internal/exec silences the interprocedural
	// finding reported there.
	sup := &suppressions{byLine: map[string]map[int][]*nolintSet{}}
	for _, pkg := range mod.Pkgs {
		mergeSuppressions(sup, collectSuppressions(pkg))
	}
	var out []Finding
	for _, f := range sup.findings {
		if matched[dirOf(f.Pos.Filename)] {
			out = append(out, f)
		}
	}
	for _, f := range raw {
		if !sup.suppressed(f) {
			out = append(out, f)
		}
	}
	// Only directives inside the matched packages: findings outside the
	// match set were dropped before suppression, so their directives would
	// look stale for the wrong reason.
	for _, f := range sup.stale() {
		if matched[dirOf(f.Pos.Filename)] {
			out = append(out, f)
		}
	}

	return &Result{Findings: dedupeFindings(sortFindings(out))}
}

func dirOf(filename string) string {
	if i := strings.LastIndexByte(filename, '/'); i >= 0 {
		return filename[:i]
	}
	return "."
}

func mergeSuppressions(dst, src *suppressions) {
	for file, lines := range src.byLine {
		m, ok := dst.byLine[file]
		if !ok {
			m = map[int][]*nolintSet{}
			dst.byLine[file] = m
		}
		for line, sets := range lines {
			m[line] = append(m[line], sets...)
		}
	}
	dst.dirs = append(dst.dirs, src.dirs...)
	dst.findings = append(dst.findings, src.findings...)
}

// posEdgeIndex groups a node's outgoing edges by call position, for the
// analyzers that look up "what may this call invoke" while walking a body.
func posEdgeIndex(n *FuncNode) map[token.Pos][]*CallEdge {
	idx := map[token.Pos][]*CallEdge{}
	for _, e := range n.Out {
		idx[e.Pos] = append(idx[e.Pos], e)
	}
	return idx
}
