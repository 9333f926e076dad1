// Command vslint runs VertexSurge's project-specific static analysis over
// the module containing the current directory. It is built entirely on the
// stdlib go/* packages — see internal/vslint for the analyzers. Every run
// is whole-program: the per-package analyzers, then the call graph and
// function summaries behind the interprocedural ones, then the audit that
// fails on any //vs:nolint that no longer suppresses a finding.
//
// Usage:
//
//	go run ./cmd/vslint ./...
//	go run ./cmd/vslint -format github ./internal/storage
//	go run ./cmd/vslint -compiler ./...
//	go run ./cmd/vslint -compiler -write-baseline ./...
//
// Flags:
//
//	-list           list analyzers and exit
//	-format github  ::error/::notice workflow annotations instead of text
//	-compiler       additionally run the compiler-feedback gate: rebuild
//	                with -gcflags='-m=1 -d=ssa/check_bce/debug=1' and fail
//	                on heap escapes or bounds checks inside //vs:hotpath
//	                functions beyond the checked-in baseline
//	-baseline       baseline path (default bench/vslint_baseline.json); its
//	                escape counts also exempt helpers from hotpath-closure
//	-write-baseline rewrite the baseline from this run instead of diffing
//
// Exit status is 1 when any error-severity finding survives //vs:nolint
// suppression or the compiler gate regresses; info-severity findings
// (including interprocedural conclusions that rest on a conservative
// dispatch guess, marked "approx") are printed but do not fail the run.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/vslint"
)

func main() {
	list := flag.Bool("list", false, "list analyzers and exit")
	format := flag.String("format", "text", "finding output format: text or github")
	compiler := flag.Bool("compiler", false, "also run the compiler-feedback gate over //vs:hotpath functions")
	baseline := flag.String("baseline", "bench/vslint_baseline.json", "compiler-gate baseline, relative to the module root")
	writeBaseline := flag.Bool("write-baseline", false, "rewrite the compiler-gate baseline from this run")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: vslint [flags] [packages]\n\npackages default to ./...\n\nflags:\n")
		flag.PrintDefaults()
		fmt.Fprintf(os.Stderr, "\nanalyzers:\n")
		printAnalyzers(os.Stderr)
	}
	flag.Parse()
	if *list {
		printAnalyzers(os.Stdout)
		return
	}
	if *format != "text" && *format != "github" {
		fmt.Fprintf(os.Stderr, "vslint: unknown -format %q (want text or github)\n", *format)
		os.Exit(2)
	}

	cwd, err := os.Getwd()
	if err != nil {
		fatal(err)
	}
	root, err := vslint.FindModuleRoot(cwd)
	if err != nil {
		fatal(err)
	}
	mod, err := vslint.LoadModule(root)
	if err != nil {
		fatal(err)
	}
	pkgs, err := mod.Match(flag.Args())
	if err != nil {
		fatal(err)
	}

	basePath := *baseline
	if !filepath.IsAbs(basePath) {
		basePath = filepath.Join(root, basePath)
	}

	var opts vslint.Options
	// The hotpath-closure analyzer trusts the compiler gate's escape counts
	// over its syntactic may-allocate guess; a missing baseline just means
	// the syntactic view stands alone.
	if base, err := vslint.ReadCompilerBaseline(basePath); err == nil {
		opts.Baseline = base
	}
	res := vslint.CheckModule(mod, pkgs, opts)

	errors := 0
	for _, f := range res.Findings {
		if f.Severity != vslint.SeverityInfo {
			errors++
		}
		printFinding(*format, relPath(cwd, f.Pos.Filename), f)
	}

	regressions := 0
	if *compiler {
		report, err := vslint.RunCompilerGate(mod)
		if err != nil {
			fatal(err)
		}
		if *writeBaseline {
			if err := vslint.WriteCompilerBaseline(basePath, report); err != nil {
				fatal(err)
			}
			fmt.Fprintf(os.Stderr, "vslint: wrote %s (%d hotpath functions)\n", relPath(cwd, basePath), len(report.Functions))
		} else {
			base, err := vslint.ReadCompilerBaseline(basePath)
			if err != nil {
				fatal(fmt.Errorf("vslint: %w (run with -write-baseline to create it)", err))
			}
			regressions = vslint.DiffCompilerBaseline(report, base, os.Stderr)
			if *format == "github" && regressions > 0 {
				for _, d := range report.Diags {
					fmt.Printf("::error file=%s,line=%d,col=%d::[vslint-compiler] %s (%s)\n", d.File, d.Line, d.Col, d.Message, d.Kind)
				}
			}
		}
	}

	if errors > 0 {
		fmt.Fprintf(os.Stderr, "vslint: %d finding(s)\n", errors)
	}
	if regressions > 0 {
		fmt.Fprintf(os.Stderr, "vslint: compiler gate: %d hotpath function(s) regressed\n", regressions)
	}
	if errors > 0 || regressions > 0 {
		os.Exit(1)
	}
}

// printAnalyzers lists the per-package and interprocedural analyzers.
func printAnalyzers(w *os.File) {
	for _, a := range vslint.All() {
		fmt.Fprintf(w, "  %-18s %s\n", a.Name, a.Doc)
	}
	fmt.Fprintf(w, "\ninterprocedural (whole-program):\n")
	for _, a := range vslint.AllInterproc() {
		fmt.Fprintf(w, "  %-18s %s\n", a.Name, a.Doc)
	}
}

// printFinding renders one finding, positioned at file, in the selected
// format.
func printFinding(format, file string, f vslint.Finding) {
	switch format {
	case "github":
		level := "error"
		if f.Severity == vslint.SeverityInfo {
			level = "notice"
		}
		fmt.Printf("::%s file=%s,line=%d,col=%d::[%s] %s\n", level, file, f.Pos.Line, f.Pos.Column, f.Analyzer, f.Message)
	default:
		f.Pos.Filename = file
		fmt.Println(f)
	}
}

func relPath(base, path string) string {
	rel, err := filepath.Rel(base, path)
	if err != nil || strings.HasPrefix(rel, "..") {
		return path
	}
	return rel
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(2)
}
