package vslint

import (
	"strings"
	"testing"
)

// checkSrc runs the whole pipeline over one synthetic file and returns the
// findings.
func checkSrc(t *testing.T, src string) []Finding {
	t.Helper()
	return checkModuleSrc(t, src, Options{}).Findings
}

// wantFinding asserts exactly one finding of the analyzer matches substr.
func wantFinding(t *testing.T, findings []Finding, analyzer, substr string) {
	t.Helper()
	for _, f := range findings {
		if f.Analyzer == analyzer && strings.Contains(f.Message, substr) {
			return
		}
	}
	t.Errorf("no %s finding containing %q; got:\n%s", analyzer, substr, renderFindings(findings))
}

func wantNoFinding(t *testing.T, findings []Finding, analyzer string) {
	t.Helper()
	for _, f := range findings {
		if f.Analyzer == analyzer {
			t.Errorf("unexpected %s finding: %s", analyzer, f)
		}
	}
}

func renderFindings(findings []Finding) string {
	var b strings.Builder
	for _, f := range findings {
		b.WriteString("  " + f.String() + "\n")
	}
	if b.Len() == 0 {
		return "  (none)\n"
	}
	return b.String()
}

func TestHotpathAllocCatchesSeededViolations(t *testing.T) {
	findings := checkSrc(t, `
package seed

import "fmt"

//vs:hotpath
func hot(xs []int, s string) int {
	buf := make([]int, 8)          // make
	p := new(int)                  // new
	xs = append(xs, 1)             // append growth
	fn := func() int { return 1 }  // closure
	_ = s + "x"                    // string concat
	var v any = 42                 // var decl boxing
	v = xs                         // assignment boxing
	fmt.Println(len(xs))           // implicit interface arg boxing
	_ = []byte(s)                  // string->[]byte copy
	_ = v
	return buf[0] + *p + fn()
}
`)
	wantFinding(t, findings, "hotpath-alloc", "make allocates")
	wantFinding(t, findings, "hotpath-alloc", "new allocates")
	wantFinding(t, findings, "hotpath-alloc", "append may grow")
	wantFinding(t, findings, "hotpath-alloc", "closure")
	wantFinding(t, findings, "hotpath-alloc", "string concatenation")
	wantFinding(t, findings, "hotpath-alloc", "var declaration converts")
	wantFinding(t, findings, "hotpath-alloc", "assignment converts")
	wantFinding(t, findings, "hotpath-alloc", "interface parameter")
	wantFinding(t, findings, "hotpath-alloc", "string/slice conversion")
}

func TestHotpathAllocIgnoresUnannotatedAndCleanFunctions(t *testing.T) {
	findings := checkSrc(t, `
package seed

// cold is unannotated: allocations are fine here.
func cold() []int { return make([]int, 4) }

// orColumn mirrors the repo's real kernels: pure word arithmetic.
//
//vs:hotpath
func orColumn(dst, src []uint64) {
	for i := range dst {
		dst[i] |= src[i]
	}
}
`)
	wantNoFinding(t, findings, "hotpath-alloc")
}

func TestUncheckedErrCatchesDroppedErrors(t *testing.T) {
	findings := checkSrc(t, `
package seed

import (
	"fmt"
	"os"
)

func drop(f *os.File) {
	os.Remove("x")        // dropped error
	defer f.Close()       // dropped deferred error
	fmt.Println("fine")   // excluded print
	if err := f.Sync(); err != nil {
		_ = err
	}
	_ = f.Close()         // explicit blank assign is a visible decision
}
`)
	wantFinding(t, findings, "unchecked-err", "os.Remove")
	wantFinding(t, findings, "unchecked-err", "deferred call to (*os.File).Close")
	for _, f := range findings {
		if f.Analyzer == "unchecked-err" && strings.Contains(f.Message, "fmt.Println") {
			t.Errorf("fmt.Println should be excluded: %s", f)
		}
	}
	if n := countAnalyzer(findings, "unchecked-err"); n != 2 {
		t.Errorf("want exactly 2 unchecked-err findings, got %d:\n%s", n, renderFindings(findings))
	}
}

func TestGoroutineHygieneCatchesSeededViolations(t *testing.T) {
	findings := checkSrc(t, `
package seed

import "sync"

func badFanout(items []int) {
	var wg sync.WaitGroup
	for _, it := range items {
		go func() {
			wg.Add(1) // Add inside the spawned goroutine
			defer wg.Done()
			_ = it
		}()
	}
	// missing wg.Wait()
}

func goodFanout(items []int) {
	var wg sync.WaitGroup
	for _, it := range items {
		wg.Add(1)
		go func(it int) {
			defer wg.Done()
			_ = it
		}(it)
	}
	wg.Wait()
}
`)
	wantFinding(t, findings, "goroutine-hygiene", "Add inside the spawned goroutine")
	wantFinding(t, findings, "goroutine-hygiene", "never Waited on")
	// goodFanout must stay silent: both findings come from badFanout.
	if n := countAnalyzer(findings, "goroutine-hygiene"); n != 2 {
		t.Errorf("want exactly 2 goroutine-hygiene findings, got %d:\n%s", n, renderFindings(findings))
	}
}

func TestNolintSuppressesAndRequiresJustification(t *testing.T) {
	findings := checkSrc(t, `
package seed

import "os"

func suppressed() {
	os.Remove("a") //vs:nolint(unchecked-err) removal of a best-effort temp file
}

func unjustified() {
	os.Remove("b") //vs:nolint(unchecked-err)
}

func wrongAnalyzer() {
	os.Remove("c") //vs:nolint(hotpath-alloc) suppresses the wrong analyzer
}
`)
	for _, f := range findings {
		if f.Analyzer == "unchecked-err" && f.Pos.Line <= 7 {
			t.Errorf("justified nolint did not suppress: %s", f)
		}
	}
	wantFinding(t, findings, "nolint", "requires a justification")
	// The unjustified directive still suppresses its line (the missing
	// justification is its own finding); the wrong-analyzer one does not.
	wantFinding(t, findings, "unchecked-err", "os.Remove")
}

func TestNolintFunctionLevelSuppression(t *testing.T) {
	findings := checkSrc(t, `
package seed

import "os"

// cleanup tears down scratch state.
//
//vs:nolint(unchecked-err) every call here is best-effort teardown
func cleanup() {
	os.Remove("a")
	os.Remove("b")
}
`)
	wantNoFinding(t, findings, "unchecked-err")
	wantNoFinding(t, findings, "nolint")
}

func countAnalyzer(findings []Finding, analyzer string) int {
	n := 0
	for _, f := range findings {
		if f.Analyzer == analyzer {
			n++
		}
	}
	return n
}
