package vslint

import "testing"

// --- span-leak ---------------------------------------------------------

const spanShims = `
type Span struct{ done bool }

func (s *Span) End() { s.done = true }

func StartSpan(name string) *Span { return &Span{} }

func work() {}
`

func TestSpanLeakCatchesEarlyReturn(t *testing.T) {
	findings := checkSrc(t, `package seed
`+spanShims+`
func leak(cond bool) {
	s := StartSpan("op")
	if cond {
		return
	}
	s.End()
}
`)
	wantFinding(t, findings, "span-leak", "may not reach End() on every path")
}

func TestSpanLeakPathSensitivity(t *testing.T) {
	// Every function here is clean: defer-released, released on all
	// branches, nil-guarded conditional acquire, or handle escape.
	findings := checkSrc(t, `package seed
`+spanShims+`
func deferred() {
	s := StartSpan("op")
	defer s.End()
	work()
}

func allPaths(cond bool) {
	s := StartSpan("op")
	if cond {
		s.End()
		return
	}
	s.End()
}

func conditional(on bool) {
	var s *Span
	if on {
		s = StartSpan("op")
	}
	work()
	if s != nil {
		s.End()
	}
}

func keep(s *Span) {}

func escapes() {
	s := StartSpan("op")
	keep(s)
}
`)
	wantNoFinding(t, findings, "span-leak")
}

func TestSpanLeakNolintSuppression(t *testing.T) {
	findings := checkSrc(t, `package seed
`+spanShims+`
func handedOff(cond bool) {
	s := StartSpan("op") //vs:nolint(span-leak) ownership transfers to the trace sink on flush
	if cond {
		return
	}
	s.End()
}
`)
	wantNoFinding(t, findings, "span-leak")
}

// --- lock-discipline ---------------------------------------------------

const lockShims = `
import "sync"

type C struct{ mu sync.Mutex }

func work() {}
`

func TestLockDisciplineCatchesMissingUnlockOnPath(t *testing.T) {
	findings := checkSrc(t, `package seed
`+lockShims+`
func (c *C) leak(cond bool) int {
	c.mu.Lock()
	if cond {
		return 1
	}
	c.mu.Unlock()
	return 0
}
`)
	wantFinding(t, findings, "lock-discipline", "not unlocked on every path")
}

func TestLockDisciplineManualUnlockBothBranchesClean(t *testing.T) {
	findings := checkSrc(t, `package seed
`+lockShims+`
func (c *C) ok(cond bool) int {
	c.mu.Lock()
	if cond {
		c.mu.Unlock()
		return 1
	}
	c.mu.Unlock()
	return 0
}

func (c *C) deferred() {
	c.mu.Lock()
	defer c.mu.Unlock()
	work()
}
`)
	wantNoFinding(t, findings, "lock-discipline")
}

func TestLockDisciplineCatchesDoubleUnlock(t *testing.T) {
	// The second Unlock runs with the lock definitely released. (A
	// may-analysis cannot flag a join where only one branch released —
	// that is the price of union merge; the straight-line shape is the
	// one the engine guarantees to catch.)
	findings := checkSrc(t, `package seed
`+lockShims+`
func (c *C) double(cond bool) {
	c.mu.Lock()
	c.mu.Unlock()
	if cond {
		c.mu.Unlock()
	}
}
`)
	wantFinding(t, findings, "lock-discipline", "on a path where it is not held")
}

// The cache/accountant ordering rule that used to be hardcoded here moved
// to the interprocedural lock-order analyzer; see
// TestLockOrderReproducesReserveUnderCacheMutex in interproc_test.go.

func TestLockDisciplineNolintSuppression(t *testing.T) {
	findings := checkSrc(t, `package seed
`+lockShims+`
func (c *C) handoff(cond bool) int {
	c.mu.Lock() //vs:nolint(lock-discipline) unlocked by the callback registered below
	if cond {
		return 1
	}
	c.mu.Unlock()
	return 0
}
`)
	wantNoFinding(t, findings, "lock-discipline")
}

// --- severity ----------------------------------------------------------

func TestDataflowLeakFindingsAreErrors(t *testing.T) {
	findings := checkSrc(t, `package seed
`+spanShims+`
func leak(cond bool) {
	s := StartSpan("op")
	if cond {
		return
	}
	s.End()
}
`)
	for _, f := range findings {
		if f.Analyzer == "span-leak" && f.Severity != SeverityError {
			t.Errorf("span-leak severity = %q, want %q", f.Severity, SeverityError)
		}
	}
}
