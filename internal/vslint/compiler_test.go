package vslint

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeSyntheticModule lays out a tiny module with deliberate hotpath
// violations: one heap escape, one bounds check, one clean function.
func writeSyntheticModule(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	files := map[string]string{
		"go.mod": "module synthleak\n\ngo 1.22\n",
		"leak.go": `package synthleak

// Leak deliberately lets its allocation escape to the heap.
//
//vs:hotpath
func Leak() *int {
	x := new(int)
	return x
}

// BC deliberately indexes without a provable bound.
//
//vs:hotpath
func BC(xs []int, i int) int {
	return xs[i]
}

// Clean is hotpath and free of escapes and bounds checks.
//
//vs:hotpath
func Clean(x int) int {
	return x + 1
}

// cold is not annotated: its allocations must not be attributed.
func cold() *int {
	return new(int)
}
`,
	}
	for name, content := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

func TestCompilerGateAttributesDeliberateViolations(t *testing.T) {
	dir := writeSyntheticModule(t)
	mod, err := LoadModule(dir)
	if err != nil {
		t.Fatalf("LoadModule: %v", err)
	}
	report, err := RunCompilerGate(mod)
	if err != nil {
		t.Fatalf("RunCompilerGate: %v", err)
	}

	if got := report.Functions["synthleak.Leak"]; got.Escapes == 0 {
		t.Errorf("Leak: want ≥1 escape, got %+v", got)
	}
	if got := report.Functions["synthleak.BC"]; got.BoundsChecks == 0 {
		t.Errorf("BC: want ≥1 bounds check, got %+v", got)
	}
	if got, ok := report.Functions["synthleak.Clean"]; !ok {
		t.Error("Clean: missing from report (zero-count hotpath functions must be recorded)")
	} else if got.Escapes != 0 || got.BoundsChecks != 0 {
		t.Errorf("Clean: want zero counts, got %+v", got)
	}
	if _, ok := report.Functions["synthleak.cold"]; ok {
		t.Error("cold: unannotated function must not appear in the report")
	}
	for _, d := range report.Diags {
		if strings.Contains(d.Function, "cold") {
			t.Errorf("diagnostic attributed to unannotated function: %+v", d)
		}
		if filepath.IsAbs(d.File) {
			t.Errorf("diag file %q not module-relative", d.File)
		}
	}

	// A fresh (empty) baseline gates every nonzero count.
	empty := &CompilerBaseline{Schema: CompilerSchema, Functions: map[string]FunctionCounts{}}
	if n := DiffCompilerBaseline(report, empty, io.Discard); n == 0 {
		t.Error("deliberate escape did not fail the gate against an empty baseline")
	}

	// Round-trip: write the baseline, read it back, diff is clean.
	basePath := filepath.Join(dir, "vslint_baseline.json")
	if err := WriteCompilerBaseline(basePath, report); err != nil {
		t.Fatalf("WriteCompilerBaseline: %v", err)
	}
	base, err := ReadCompilerBaseline(basePath)
	if err != nil {
		t.Fatalf("ReadCompilerBaseline: %v", err)
	}
	if n := DiffCompilerBaseline(report, base, io.Discard); n != 0 {
		t.Errorf("report vs its own baseline: want 0 regressions, got %d", n)
	}
}

func TestCompilerBaselineSchemaMismatch(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "b.json")
	if err := os.WriteFile(path, []byte(`{"schema": 999, "functions": {}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadCompilerBaseline(path); err == nil {
		t.Error("want schema-mismatch error, got nil")
	}
}

func TestDiffReportsNewAndMissingFunctions(t *testing.T) {
	report := &CompilerReport{
		Schema: CompilerSchema,
		Functions: map[string]FunctionCounts{
			"m.New": {Escapes: 0, BoundsChecks: 0},
		},
	}
	base := &CompilerBaseline{
		Schema: CompilerSchema,
		Functions: map[string]FunctionCounts{
			"m.Gone": {Escapes: 1, BoundsChecks: 0},
		},
	}
	var sb strings.Builder
	if n := DiffCompilerBaseline(report, base, &sb); n != 0 {
		t.Errorf("clean new function must not be a regression, got %d", n)
	}
	out := sb.String()
	if !strings.Contains(out, "NEW") {
		t.Errorf("diff output missing NEW marker:\n%s", out)
	}
	if !strings.Contains(out, "MISSING") {
		t.Errorf("diff output missing MISSING marker:\n%s", out)
	}
}
