package vslint

import (
	"strings"
	"testing"
)

// TestNolintAuditFlagsStaleDirective: a //vs:nolint that no finding ever
// hits is stale; one that suppresses a live finding is not.
func TestNolintAuditFlagsStaleDirective(t *testing.T) {
	src := `package seed

import "os"

func cleanup() {
	os.Remove("scratch") //vs:nolint(unchecked-err) best-effort removal of a temp file
}

func harmless() int {
	return 1 //vs:nolint(unchecked-err) nothing ever fired here
}
`
	res := checkModuleSrc(t, src, Options{})
	var stale []Finding
	for _, f := range res.Findings {
		if f.Analyzer == "nolint-audit" {
			stale = append(stale, f)
		}
	}
	if len(stale) != 1 {
		t.Fatalf("want exactly 1 stale directive, got %d:\n%s", len(stale), renderFindings(stale))
	}
	if want := strings.Count(src[:strings.Index(src, "nothing ever fired here")], "\n") + 1; stale[0].Pos.Line != want {
		t.Errorf("stale finding at line %d, want %d", stale[0].Pos.Line, want)
	}
	wantFinding(t, res.Findings, "nolint-audit", "stale //vs:nolint")
	// The suppression itself still works: no unchecked-err finding.
	wantNoFinding(t, res.Findings, "unchecked-err")
}

// TestNolintAuditSkipsContractViolations: a directive that already drew a
// contract finding (unknown analyzer name) is a different mistake, not a
// stale suppression — it must not be reported twice.
func TestNolintAuditSkipsContractViolations(t *testing.T) {
	res := checkModuleSrc(t, `package seed

func harmless() int {
	return 1 //vs:nolint(no-such-analyzer) misspelled on purpose
}
`, Options{})
	wantFinding(t, res.Findings, "nolint", `unknown analyzer "no-such-analyzer"`)
	wantNoFinding(t, res.Findings, "nolint-audit")
}
