// Package vslint is VertexSurge's project-specific static analysis. It is
// built entirely on the stdlib go/parser, go/types, and go/token packages
// (no golang.org/x/tools dependency) and runs one way: CheckModule loads
// the whole module, runs the per-package analyzers (All) over the matched
// packages, builds the call graph and function summaries, and runs the
// whole-program analyzers (AllInterproc) on top. The per-package ones are:
//
//   - hotpath-alloc: functions annotated //vs:hotpath must not allocate
//     (forEachAlloc lists what counts). A stray allocation in VExpand's
//     or_column loop or MIntersect's intersec_col silently destroys the
//     microarchitectural behaviour Figure 9 measures.
//   - unchecked-err: error returns must not be dropped on the floor,
//     targeting the spill/mmap I/O paths in internal/storage.
//   - goroutine-hygiene: worker fan-outs must not call WaitGroup.Add inside
//     the spawned goroutine, and must Wait on every local WaitGroup they
//     Add to.
//   - span-leak, lock-discipline: the CFG + dataflow pairing checks of
//     cfg.go/dataflow.go.
//
// The whole-program ones are lock-order and hotpath-closure. DESIGN.md
// ("What each analyzer catches") records the seeded-defect study that
// found, for each of the seven, a defect go vet and the tests missed.
// Copies of a mutex or a typed atomic are go vet's copylocks check, which
// scripts/verify.sh runs; a field read or written without its mutex is the
// race detector's, under the tests that drive each lock from several
// goroutines.
//
// Findings are suppressed with a trailing or preceding comment of the form
//
//	//vs:nolint(analyzer-name) justification
//
// The analyzer list is optional (bare //vs:nolint suppresses everything on
// the line), but the justification text is mandatory: an unjustified nolint
// is itself reported, and so is one that no longer suppresses anything.
package vslint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Severity levels of a finding. Errors fail the build; info findings are
// advisories printed but not counted against the exit code.
const (
	SeverityError = "error"
	SeverityInfo  = "info"
)

// Finding is one reported violation.
type Finding struct {
	// Analyzer names the reporting analyzer; when several analyzers fire
	// at the same position the finding is merged and the names are joined
	// with "+".
	Analyzer string
	Pos      token.Position
	Message  string
	Severity string
	// Approx marks a finding that depends on a conservative dispatch guess
	// (interface or signature-matched callee); such findings are info
	// severity so a guessed call edge never hard-fails CI.
	Approx bool
}

func (f Finding) String() string {
	sev := ""
	if f.Severity == SeverityInfo {
		sev = " (advisory)"
	}
	if f.Approx {
		sev += " (approx)"
	}
	return fmt.Sprintf("%s:%d:%d: [%s] %s%s", f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Analyzer, f.Message, sev)
}

// Analyzer is one named check run over a type-checked package.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass)
}

// Pass carries one package through one analysis run.
type Pass struct {
	Fset  *token.FileSet
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info

	analyzer string
	report   func(f Finding)
}

// Reportf records an error-severity finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Finding{
		Analyzer: p.analyzer,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
		Severity: SeverityError,
	})
}

// typeOf returns the static type of e, or nil if unknown.
func (p *Pass) typeOf(e ast.Expr) types.Type {
	if tv, ok := p.Info.Types[e]; ok {
		return tv.Type
	}
	return nil
}

// All returns the per-package analyzers in reporting order. The first
// three are syntactic walks; the last two are built on the CFG + dataflow
// engine in cfg.go/dataflow.go.
func All() []*Analyzer {
	return []*Analyzer{
		HotpathAlloc, UncheckedErr, GoroutineHygiene,
		SpanLeak, LockDiscipline,
	}
}

// sortFindings orders findings by position, then analyzer name.
func sortFindings(out []Finding) []Finding {
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].Pos, out[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		return out[i].Analyzer < out[j].Analyzer
	})
	return out
}

// dedupeFindings merges findings reported at the same position (span-leak
// and lock-discipline both firing on one early return, say) into a single
// finding: analyzer names joined with "+", messages with "; ". Error
// severity wins over info, and the merged finding is approximate only when
// every constituent is. Input must be position-sorted.
func dedupeFindings(in []Finding) []Finding {
	var out []Finding
	for _, f := range in {
		if len(out) > 0 {
			prev := &out[len(out)-1]
			if prev.Pos.Filename == f.Pos.Filename && prev.Pos.Line == f.Pos.Line && prev.Pos.Column == f.Pos.Column {
				if !containsAnalyzer(prev.Analyzer, f.Analyzer) {
					prev.Analyzer += "+" + f.Analyzer
				}
				if prev.Message != f.Message && !strings.Contains(prev.Message+"; ", f.Message+"; ") {
					prev.Message += "; " + f.Message
				}
				if f.Severity == SeverityError {
					prev.Severity = SeverityError
				}
				prev.Approx = prev.Approx && f.Approx
				continue
			}
		}
		out = append(out, f)
	}
	return out
}

// containsAnalyzer reports whether the "+"-joined analyzer list names a.
func containsAnalyzer(list, a string) bool {
	for _, name := range strings.Split(list, "+") {
		if name == a {
			return true
		}
	}
	return false
}

const (
	nolintDirective  = "vs:nolint"
	hotpathDirective = "vs:hotpath"
)

// hasDirective reports whether the comment group contains the directive as
// a standalone marker line (e.g. "//vs:hotpath" optionally followed by
// prose on the same line).
func hasDirective(cg *ast.CommentGroup, directive string) bool {
	if cg == nil {
		return false
	}
	for _, c := range cg.List {
		text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
		if text == directive || strings.HasPrefix(text, directive+" ") {
			return true
		}
	}
	return false
}

// nolintDir is one //vs:nolint comment in the source. The audit reports
// directives that never suppressed a finding: usage is marked when any
// finding hits a line the directive covers.
// Line-scoped and function-scoped coverage of the same comment share one
// record, so firing through either counts.
type nolintDir struct {
	pos  token.Position
	used bool
}

// nolintSet is the set of analyzers one directive suppresses over one
// coverage range; a nil names map suppresses every analyzer.
type nolintSet struct {
	names map[string]bool
	dir   *nolintDir
}

func (s *nolintSet) covers(analyzer string) bool {
	return s.names == nil || s.names[analyzer]
}

type suppressions struct {
	// byLine maps filename → line → every suppression covering that line.
	byLine map[string]map[int][]*nolintSet
	// dirs lists every directive, for the staleness audit.
	dirs []*nolintDir
	// findings holds violations of the nolint contract itself (missing
	// justification, unknown analyzer name).
	findings []Finding
}

// suppressed reports whether f is covered, marking every covering
// directive used (overlapping directives all earn their keep).
func (s *suppressions) suppressed(f Finding) bool {
	hit := false
	for _, set := range s.byLine[f.Pos.Filename][f.Pos.Line] {
		if set.covers(f.Analyzer) {
			hit = true
			if set.dir != nil {
				set.dir.used = true
			}
		}
	}
	return hit
}

// stale returns one finding per directive no finding ever hit.
func (s *suppressions) stale() []Finding {
	var out []Finding
	for _, d := range s.dirs {
		if !d.used {
			out = append(out, Finding{
				Analyzer: "nolint-audit",
				Pos:      d.pos,
				Message:  "stale //vs:nolint: the finding it suppressed no longer fires here; remove the directive",
				Severity: SeverityError,
			})
		}
	}
	return out
}

func (s *suppressions) add(filename string, line int, set *nolintSet) {
	m, ok := s.byLine[filename]
	if !ok {
		m = map[int][]*nolintSet{}
		s.byLine[filename] = m
	}
	m[line] = append(m[line], set)
}

// collectSuppressions scans every comment of the package for //vs:nolint
// directives. A directive suppresses findings on the comment's own line and
// on the line immediately following it (covering both trailing and
// preceding placement); a directive in a function's doc comment suppresses
// the whole function.
func collectSuppressions(pkg *Package) *suppressions {
	sup := &suppressions{byLine: map[string]map[int][]*nolintSet{}}
	known := map[string]bool{}
	for _, a := range All() {
		known[a.Name] = true
	}
	for _, a := range AllInterproc() {
		known[a.Name] = true
	}
	// One directive record per source comment, shared between the
	// line-scoped and function-scoped coverage of that comment.
	dirs := map[token.Pos]*nolintDir{}
	dirFor := func(c *ast.Comment) *nolintDir {
		if d, ok := dirs[c.Pos()]; ok {
			return d
		}
		d := &nolintDir{pos: pkg.Fset.Position(c.Pos())}
		dirs[c.Pos()] = d
		sup.dirs = append(sup.dirs, d)
		return d
	}
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				before := len(sup.findings)
				set, ok := parseNolint(pkg, sup, known, c)
				if !ok {
					continue
				}
				set.dir = dirFor(c)
				if len(sup.findings) > before {
					// A directive that already drew a contract finding
					// (unjustified, unknown name) is not additionally
					// reported as stale.
					set.dir.used = true
				}
				pos := pkg.Fset.Position(c.Pos())
				end := pkg.Fset.Position(c.End())
				for line := pos.Line; line <= end.Line+1; line++ {
					sup.add(pos.Filename, line, set)
				}
			}
		}
		// Function-level suppression via the doc comment.
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Doc == nil || fd.Body == nil {
				continue
			}
			var set *nolintSet
			var src *ast.Comment
			for _, c := range fd.Doc.List {
				if s, ok := parseNolint(pkg, nil, known, c); ok {
					set, src = s, c
					break
				}
			}
			if set == nil {
				continue
			}
			set.dir = dirFor(src)
			start := pkg.Fset.Position(fd.Pos())
			end := pkg.Fset.Position(fd.End())
			for line := start.Line; line <= end.Line; line++ {
				sup.add(start.Filename, line, set)
			}
		}
	}
	return sup
}

// parseNolint parses one comment as a nolint directive. It returns ok=false
// when the comment is not a directive. Contract violations (no
// justification, unknown analyzer) are recorded on sup when non-nil.
func parseNolint(pkg *Package, sup *suppressions, known map[string]bool, c *ast.Comment) (*nolintSet, bool) {
	text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
	rest, ok := strings.CutPrefix(text, nolintDirective)
	if !ok {
		return nil, false
	}
	set := &nolintSet{}
	if strings.HasPrefix(rest, "(") {
		close := strings.Index(rest, ")")
		if close < 0 {
			if sup != nil {
				sup.findings = append(sup.findings, Finding{
					Analyzer: "nolint",
					Pos:      pkg.Fset.Position(c.Pos()),
					Message:  "malformed //vs:nolint: missing ')'",
					Severity: SeverityError,
				})
			}
			return nil, false
		}
		set.names = map[string]bool{}
		for _, name := range strings.Split(rest[1:close], ",") {
			name = strings.TrimSpace(name)
			if name == "" {
				continue
			}
			if sup != nil && !known[name] {
				sup.findings = append(sup.findings, Finding{
					Analyzer: "nolint",
					Pos:      pkg.Fset.Position(c.Pos()),
					Message:  fmt.Sprintf("//vs:nolint names unknown analyzer %q", name),
					Severity: SeverityError,
				})
			}
			set.names[name] = true
		}
		rest = rest[close+1:]
	}
	if sup != nil && strings.TrimSpace(rest) == "" {
		sup.findings = append(sup.findings, Finding{
			Analyzer: "nolint",
			Pos:      pkg.Fset.Position(c.Pos()),
			Message:  "//vs:nolint requires a justification after the directive",
			Severity: SeverityError,
		})
	}
	return set, true
}
