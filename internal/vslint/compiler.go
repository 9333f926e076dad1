package vslint

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/token"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// This file is vslint's second verification layer: instead of pattern-
// matching the source, it asks the compiler what actually happened. `go
// build -gcflags='-m=1 -d=ssa/check_bce/debug=1'` reports every value the
// escape analysis moved to the heap and every bounds check the SSA
// backend failed to eliminate; those diagnostics are attributed to
// //vs:hotpath functions through the annotation index and diffed against
// a checked-in baseline (bench/vslint_baseline.json): any count above the
// baseline fails.
//
// The syntactic hotpath-alloc analyzer and this gate are complementary:
// the analyzer catches categorical mistakes (a composite literal in a
// kernel) at parse time, while the compiler gate catches what only the
// optimizer can decide — a bounds check the prove pass lost, an interface
// conversion the inliner materialized.

// CompilerSchema versions the report and baseline JSON shapes.
const CompilerSchema = 1

// CompilerDiag is one compiler diagnostic attributed to a hotpath
// function.
type CompilerDiag struct {
	// Function is the import-path-qualified display name, e.g.
	// "repro/internal/bitmatrix.(*Matrix).Set".
	Function string `json:"function"`
	// File is module-relative with forward slashes, stable across hosts.
	File    string `json:"file"`
	Line    int    `json:"line"`
	Col     int    `json:"col"`
	Kind    string `json:"kind"` // "escape" or "bounds"
	Message string `json:"message"`
}

// FunctionCounts aggregates the diagnostics of one hotpath function.
type FunctionCounts struct {
	Escapes      int `json:"escapes"`
	BoundsChecks int `json:"bounds_checks"`
}

// CompilerReport is the machine-readable result of one -compiler run.
type CompilerReport struct {
	Schema    int    `json:"schema"`
	GoVersion string `json:"go_version"`
	Module    string `json:"module"`
	// Diags lists every attributed diagnostic; Functions holds one entry
	// per //vs:hotpath function, including zero-count ones, so a baseline
	// records the full surface and new annotations show up as NEW.
	Diags     []CompilerDiag            `json:"diags"`
	Functions map[string]FunctionCounts `json:"functions"`
}

// CompilerBaseline is the checked-in reference the report diffs against.
type CompilerBaseline struct {
	Schema    int                       `json:"schema"`
	GoVersion string                    `json:"go_version,omitempty"`
	Functions map[string]FunctionCounts `json:"functions"`
}

// hotpathRange locates one annotated function in the source tree.
type hotpathRange struct {
	name     string // import-path-qualified display name
	file     string // absolute path
	from, to int    // inclusive line range of the declaration
}

// hotpathIndex collects every //vs:hotpath function of the module plus the
// members of its closure: declared functions reachable from a hotpath root
// over precise call edges (static calls and recorded field candidates),
// stopping at //vs:coldpath and //go:noinline boundaries. Attributing
// compiler diagnostics to closure members too means the baseline records
// real escape counts for the helpers the hotpath-closure analyzer checks —
// a helper the escape analysis proves clean is then exempted by evidence
// instead of syntax.
func hotpathIndex(mod *Module) []hotpathRange {
	var idx []hotpathRange
	seen := map[string]bool{}
	add := func(name string, pos, end token.Pos) {
		if seen[name] {
			return
		}
		seen[name] = true
		start := mod.Fset.Position(pos)
		idx = append(idx, hotpathRange{
			name: name,
			file: start.Filename,
			from: start.Line,
			to:   mod.Fset.Position(end).Line,
		})
	}
	for _, pkg := range mod.Pkgs {
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || !hasDirective(fd.Doc, hotpathDirective) {
					continue
				}
				add(pkg.ImportPath+"."+funcDisplayName(fd), fd.Pos(), fd.End())
			}
		}
	}

	g := BuildCallGraph(mod)
	visited := map[*FuncNode]bool{}
	var dfs func(n *FuncNode)
	dfs = func(n *FuncNode) {
		for _, e := range n.Out {
			callee := e.Callee
			// Only edges the resolver is sure about extend the attributed
			// closure; a guessed interface candidate must not grow the gate.
			if callee == g.Unknown || (e.Kind != EdgeStatic && e.Kind != EdgeField) {
				continue
			}
			if callee.Coldpath || callee.Noinline || visited[callee] {
				continue
			}
			visited[callee] = true
			if callee.Decl != nil && !seen[callee.Name] {
				add(callee.Name, callee.Decl.Pos(), callee.Decl.End())
			}
			dfs(callee)
		}
	}
	for _, n := range g.Nodes {
		if n.Hotpath {
			dfs(n)
		}
	}
	return idx
}

// funcDisplayName renders fd the way the compiler and pprof do:
// "Name", "Recv.Name", or "(*Recv).Name". Generic receivers drop their
// type parameters: methods of Box[T] display as "(*Box).Set".
func funcDisplayName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return fd.Name.Name
	}
	t := fd.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		if name := recvTypeName(star.X); name != "" {
			return "(*" + name + ")." + fd.Name.Name
		}
	}
	if name := recvTypeName(t); name != "" {
		return name + "." + fd.Name.Name
	}
	return fd.Name.Name
}

// recvTypeName names a receiver base type, unwrapping the type-parameter
// index of generic receivers (Box[T], Pair[K, V]).
func recvTypeName(t ast.Expr) string {
	switch t := t.(type) {
	case *ast.Ident:
		return t.Name
	case *ast.IndexExpr:
		return recvTypeName(t.X)
	case *ast.IndexListExpr:
		return recvTypeName(t.X)
	}
	return ""
}

// RunCompilerGate rebuilds the module with escape-analysis and
// bounds-check diagnostics enabled and attributes them to //vs:hotpath
// functions. The build uses -a: a cached compile emits no diagnostics, so
// the gate must defeat the build cache (this is why the step costs tens
// of seconds, and why it hides behind SKIP_COMPILER_LINT in CI).
func RunCompilerGate(mod *Module) (*CompilerReport, error) {
	gcflags := fmt.Sprintf("-gcflags=%s/...=-m=1 -d=ssa/check_bce/debug=1", mod.Path)
	cmd := exec.Command("go", "build", "-a", gcflags, "./...")
	cmd.Dir = mod.Root
	cmd.Env = os.Environ()
	out, err := cmd.CombinedOutput()
	if err != nil {
		return nil, fmt.Errorf("vslint: go build failed: %v\n%s", err, out)
	}

	idx := hotpathIndex(mod)
	report := &CompilerReport{
		Schema:    CompilerSchema,
		GoVersion: runtime.Version(),
		Module:    mod.Path,
		Functions: map[string]FunctionCounts{},
	}
	for _, r := range idx {
		report.Functions[r.name] = FunctionCounts{}
	}

	seen := map[string]bool{}
	for _, line := range strings.Split(string(out), "\n") {
		file, ln, col, msg, ok := parseDiagLine(line)
		if !ok {
			continue
		}
		kind := classifyDiag(msg)
		if kind == "" {
			continue
		}
		abs := file
		if !filepath.IsAbs(abs) {
			abs = filepath.Join(mod.Root, file)
		}
		abs = filepath.Clean(abs)
		for _, r := range idx {
			if r.file != abs || ln < r.from || ln > r.to {
				continue
			}
			key := fmt.Sprintf("%s:%d:%d:%s:%s", abs, ln, col, kind, msg)
			if seen[key] {
				break
			}
			seen[key] = true
			rel, err := filepath.Rel(mod.Root, abs)
			if err != nil {
				rel = file
			}
			report.Diags = append(report.Diags, CompilerDiag{
				Function: r.name,
				File:     filepath.ToSlash(rel),
				Line:     ln,
				Col:      col,
				Kind:     kind,
				Message:  msg,
			})
			fc := report.Functions[r.name]
			if kind == "escape" {
				fc.Escapes++
			} else {
				fc.BoundsChecks++
			}
			report.Functions[r.name] = fc
			break
		}
	}
	sort.Slice(report.Diags, func(i, j int) bool {
		a, b := report.Diags[i], report.Diags[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return a.Col < b.Col
	})
	return report, nil
}

// parseDiagLine splits one "path:line:col: message" compiler line.
func parseDiagLine(line string) (file string, ln, col int, msg string, ok bool) {
	line = strings.TrimSpace(line)
	if line == "" || strings.HasPrefix(line, "#") || strings.HasPrefix(line, "<autogenerated>") {
		return "", 0, 0, "", false
	}
	// path : line : col : msg — scan from the left so the message may
	// contain colons.
	parts := strings.SplitN(line, ":", 4)
	if len(parts) != 4 {
		return "", 0, 0, "", false
	}
	ln, err1 := strconv.Atoi(parts[1])
	col, err2 := strconv.Atoi(parts[2])
	if err1 != nil || err2 != nil {
		return "", 0, 0, "", false
	}
	return strings.TrimPrefix(parts[0], "./"), ln, col, strings.TrimSpace(parts[3]), true
}

// classifyDiag maps a compiler message to a diagnostic kind, or "".
// "leaking param" lines are deliberately excluded: a leaking parameter
// moves the allocation decision to the caller, it is not an allocation in
// the annotated function.
func classifyDiag(msg string) string {
	switch {
	case strings.Contains(msg, "escapes to heap"), strings.Contains(msg, "moved to heap"):
		return "escape"
	case strings.Contains(msg, "Found IsInBounds"), strings.Contains(msg, "Found IsSliceInBounds"):
		return "bounds"
	}
	return ""
}

// ReadCompilerBaseline loads and validates a baseline file.
func ReadCompilerBaseline(path string) (*CompilerBaseline, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b CompilerBaseline
	if err := json.Unmarshal(raw, &b); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if b.Schema != CompilerSchema {
		return nil, fmt.Errorf("%s: schema %d, want %d (regenerate with -write-baseline)", path, b.Schema, CompilerSchema)
	}
	if b.Functions == nil {
		b.Functions = map[string]FunctionCounts{}
	}
	return &b, nil
}

// WriteCompilerBaseline records the report's per-function counts at path.
func WriteCompilerBaseline(path string, report *CompilerReport) error {
	b := CompilerBaseline{
		Schema:    CompilerSchema,
		GoVersion: report.GoVersion,
		Functions: report.Functions,
	}
	raw, err := json.MarshalIndent(&b, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

// DiffCompilerBaseline prints one line per hotpath function and returns
// the number of regressions: functions whose escape or bounds-check count
// exceeds the baseline. Functions missing from the
// baseline gate against zero, so a newly annotated function must come up
// clean (or the baseline must be regenerated deliberately).
func DiffCompilerBaseline(report *CompilerReport, base *CompilerBaseline, out io.Writer) int {
	names := make([]string, 0, len(report.Functions))
	for name := range report.Functions {
		names = append(names, name)
	}
	sort.Strings(names)

	regressions := 0
	for _, name := range names {
		c := report.Functions[name]
		b, known := base.Functions[name]
		status := "ok"
		if !known {
			status = "NEW"
		}
		if c.Escapes > b.Escapes || c.BoundsChecks > b.BoundsChecks {
			status = "REGRESSED"
			regressions++
		}
		fmt.Fprintf(out, "%-9s %-60s escapes %d->%d  bounds %d->%d\n",
			status, name, b.Escapes, c.Escapes, b.BoundsChecks, c.BoundsChecks)
		if status == "REGRESSED" {
			for _, d := range report.Diags {
				if d.Function == name {
					fmt.Fprintf(out, "          %s:%d:%d: %s (%s)\n", d.File, d.Line, d.Col, d.Message, d.Kind)
				}
			}
		}
	}
	for name := range base.Functions {
		if _, ok := report.Functions[name]; !ok {
			fmt.Fprintf(out, "MISSING   %-60s (in baseline only; annotation removed?)\n", name)
		}
	}
	fmt.Fprintf(out, "compiler gate: %d hotpath function(s), %d regression(s)\n", len(names), regressions)
	return regressions
}
