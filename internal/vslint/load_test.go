package vslint

import (
	"os"
	"path/filepath"
	"testing"
)

// TestLoadModuleOnThisRepo loads and type-checks the enclosing module end
// to end — the same path `go run ./cmd/vslint ./...` takes — and exercises
// pattern matching. It doubles as a regression test that the repo itself
// stays analyzably clean.
func TestLoadModuleOnThisRepo(t *testing.T) {
	if testing.Short() {
		t.Skip("full-module type check is slow; skipped with -short")
	}
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	mod, err := LoadModule(root)
	if err != nil {
		t.Fatal(err)
	}
	if mod.Path != "repro" {
		t.Fatalf("module path = %q, want repro", mod.Path)
	}
	byPath := map[string]bool{}
	for _, p := range mod.Pkgs {
		byPath[p.ImportPath] = true
	}
	for _, want := range []string{"repro", "repro/internal/vslint", "repro/internal/vexpand", "repro/internal/storage"} {
		if !byPath[want] {
			t.Errorf("package %s not loaded", want)
		}
	}

	all, err := mod.Match([]string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != len(mod.Pkgs) {
		t.Errorf("./... matched %d of %d packages", len(all), len(mod.Pkgs))
	}
	sub, err := mod.Match([]string{"./internal/..."})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range sub {
		if p.ImportPath == "repro" || p.ImportPath == "repro/cmd/vslint" {
			t.Errorf("./internal/... wrongly matched %s", p.ImportPath)
		}
	}
	if _, err := mod.Match([]string{"./nosuchdir"}); err == nil {
		t.Error("pattern with no matches should error")
	}

	// The repo itself must be finding-free: the CI gate runs this same
	// check, and a regression here means a kernel/concurrency invariant
	// broke or a //vs:nolint went stale.
	base, err := ReadCompilerBaseline(filepath.Join(root, "bench", "vslint_baseline.json"))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range CheckModule(mod, all, Options{Baseline: base}).Findings {
		t.Errorf("unexpected finding: %s", f)
	}
}

// TestLoadModuleStopsAtNestedModule: a subdirectory with its own go.mod is
// another module (this repo's benchmark/), which `go build ./...` skips;
// the loader must skip it too instead of type-checking it as a package of
// the outer module.
func TestLoadModuleStopsAtNestedModule(t *testing.T) {
	dir := t.TempDir()
	files := map[string]string{
		"go.mod":           "module outer\n\ngo 1.22\n",
		"outer.go":         "package outer\n\nfunc F() {}\n",
		"inner/go.mod":     "module outer/inner\n\ngo 1.22\n",
		"inner/inner.go":   "package inner\n\nimport \"example.com/not/resolvable\"\n\nvar _ = resolvable.X\n",
		"inner/sub/sub.go": "package sub\n",
		"plain/plain.go":   "package plain\n",
	}
	for name, content := range files {
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	mod, err := LoadModule(dir)
	if err != nil {
		t.Fatalf("LoadModule: %v", err)
	}
	var got []string
	for _, p := range mod.Pkgs {
		got = append(got, p.ImportPath)
	}
	if len(got) != 2 || got[0] != "outer" || got[1] != "outer/plain" {
		t.Errorf("loaded %v, want [outer outer/plain]", got)
	}
}
