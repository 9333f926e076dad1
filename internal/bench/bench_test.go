package bench

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"repro/internal/baseline"
	"repro/internal/datagen"
	"repro/internal/engine"
)

// tiny keeps every experiment fast in unit tests.
func tiny() Config {
	return Config{Scale: 0.005, Budget: 5_000_000}
}

func TestFig2b(t *testing.T) {
	rows, err := Fig2b(tiny(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	for i, r := range rows {
		if r.KMax != i+1 {
			t.Fatalf("row %d kmax = %d", i, r.KMax)
		}
		if r.VertexSurge <= 0 {
			t.Fatalf("kmax %d: no VertexSurge time", r.KMax)
		}
	}
	// Counts grow (weakly) with kmax.
	for i := 1; i < len(rows); i++ {
		if rows[i].Count < rows[i-1].Count {
			t.Fatalf("triangle count shrank: %d then %d", rows[i-1].Count, rows[i].Count)
		}
	}
	var buf bytes.Buffer
	PrintFig2b(&buf, rows)
	if !strings.Contains(buf.String(), "Figure 2b") {
		t.Fatal("print output missing title")
	}
}

func TestTable1(t *testing.T) {
	cfg := Config{Scale: 0.0005}
	rows, err := Table1(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 8 {
		t.Fatalf("rows = %d, want 8 datasets", len(rows))
	}
	names := datagen.Table1Names()
	for i, r := range rows {
		if r.Name != names[i] {
			t.Fatalf("row %d = %s, want %s", i, r.Name, names[i])
		}
		if r.GenV <= 0 || r.GenE <= 0 || r.SizeBytes <= 0 {
			t.Fatalf("%s: empty generated graph", r.Name)
		}
	}
	var buf bytes.Buffer
	PrintTable1(&buf, cfg, rows)
	if !strings.Contains(buf.String(), "Twitter2010") {
		t.Fatal("print output missing dataset")
	}
}

func TestFig6CoversAllCases(t *testing.T) {
	cells, err := Fig6(tiny(), []string{"LastFM"})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	for _, c := range cells {
		seen[c.Case] = true
		if c.VertexSurge <= 0 {
			t.Fatalf("case %d on %s: no VertexSurge time", c.Case, c.Dataset)
		}
	}
	for n := 1; n <= 12; n++ {
		if !seen[n] {
			t.Errorf("case %d missing from Figure 6", n)
		}
	}
	var buf bytes.Buffer
	PrintFig6(&buf, cells)
	if !strings.Contains(buf.String(), "C12") {
		t.Fatal("print output missing case 12")
	}
}

func TestFig7LinearSweep(t *testing.T) {
	rows, err := Fig7(tiny(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 7 {
		t.Fatalf("rows = %d, want 7 cases", len(rows))
	}
	for _, r := range rows {
		if len(r.Times) != 3 {
			t.Fatalf("case %d has %d points", r.Case, len(r.Times))
		}
	}
	var buf bytes.Buffer
	PrintFig7(&buf, rows)
	if !strings.Contains(buf.String(), "k=3") {
		t.Fatal("print output missing sweep point")
	}
}

func TestFig8Breakdown(t *testing.T) {
	rows, err := Fig8(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 12 {
		t.Fatalf("rows = %d, want 12", len(rows))
	}
	for _, r := range rows {
		if r.Timings.Total <= 0 {
			t.Fatalf("case %d: no total time", r.Case)
		}
		// The paper's Figure 8 property: ANY-only cases 11 and 12 spend
		// no time maintaining visited sets.
		if (r.Case == 11 || r.Case == 12) && r.Timings.UpdateVisit != 0 {
			t.Errorf("case %d spent %v on UpdateVisit; ANY cases must not", r.Case, r.Timings.UpdateVisit)
		}
	}
	var buf bytes.Buffer
	PrintFig8(&buf, rows)
	if !strings.Contains(buf.String(), "UpdateVisit") {
		t.Fatal("print output missing stage")
	}
}

func TestTable2RatioGrows(t *testing.T) {
	rows, err := Table2(tiny(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	// The paper's shape: at k_max = 1 join and expand are equal
	// (ratio 1); the ratio then grows strictly with k_max (1.52, 8.51).
	if rows[0].Ratio < 0.999 || rows[0].Ratio > 1.001 {
		t.Errorf("k=1 ratio = %f, want 1", rows[0].Ratio)
	}
	for i := 1; i < len(rows); i++ {
		if rows[i].Ratio <= rows[i-1].Ratio {
			t.Errorf("ratio not growing: %f then %f", rows[i-1].Ratio, rows[i].Ratio)
		}
	}
	var buf bytes.Buffer
	PrintTable2(&buf, rows)
	if !strings.Contains(buf.String(), "Join/Expand") {
		t.Fatal("print output missing ratio column")
	}
}

func TestFig9LadderAgreesAndPrints(t *testing.T) {
	rows, err := Fig9(tiny(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(Fig9Ladder) {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[0].Speedup < 0.999 || rows[0].Speedup > 1.001 {
		t.Errorf("straw-man speedup = %f, want 1", rows[0].Speedup)
	}
	var buf bytes.Buffer
	PrintFig9(&buf, rows)
	for _, want := range []string{"strawman", "column-major", "simd", "hilbert"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("print output missing kernel %s", want)
		}
	}
}

// TestJoinCasesAgreeWithEngine is the deep validation behind Figure 6: the
// join baseline must compute identical answers to VertexSurge on every
// case, so measured gaps are purely about execution strategy.
func TestJoinCasesAgreeWithEngine(t *testing.T) {
	cfg := tiny()
	ds := newDatasets(cfg)

	// Social cases on LastFM.
	engSN, dSN, err := ds.engine("LastFM")
	if err != nil {
		t.Fatal(err)
	}
	jcSN := newJoinCases(dSN.Graph, cfg.Budget)
	cpSN := paramsFor(dSN)
	const kmax = 3

	if want, _, err := engSN.Case1(kmax); err != nil {
		t.Fatal(err)
	} else if got, err := jcSN.case1(kmax); err != nil || got != want {
		t.Errorf("case1: join %d (%v), engine %d", got, err, want)
	}

	want2, _, err := engSN.Case2(kmax, 0)
	if err != nil {
		t.Fatal(err)
	}
	got2, err := jcSN.case2(kmax, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got2, want2) {
		t.Errorf("case2: join %v, engine %v", got2, want2)
	}

	want3, _, err := engSN.Case3(kmax, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got3, err := jcSN.case3(kmax, 0); err != nil || !reflect.DeepEqual(got3, want3) {
		t.Errorf("case3 mismatch (%v)", err)
	}

	if want, _, err := engSN.Case4(2); err != nil {
		t.Fatal(err)
	} else if got, err := jcSN.case4(2); err != nil || got != want {
		t.Errorf("case4: join %d (%v), engine %d", got, err, want)
	}

	want5, _, err := engSN.Case5(cpSN.personIDs, kmax)
	if err != nil {
		t.Fatal(err)
	}
	if got5, err := jcSN.case5(cpSN.personIDs, kmax); err != nil || !reflect.DeepEqual(got5, want5) {
		t.Errorf("case5 mismatch (%v)", err)
	}

	// Bank cases on Rabobank.
	engRB, dRB, err := ds.engine("Rabobank")
	if err != nil {
		t.Fatal(err)
	}
	jcRB := newJoinCases(dRB.Graph, cfg.Budget)
	cpRB := paramsFor(dRB)
	if want, _, err := engRB.Case6(4); err != nil {
		t.Fatal(err)
	} else if got, err := jcRB.case6(4); err != nil || got != want {
		t.Errorf("case6: join %d (%v), engine %d", got, err, want)
	}
	want7, _, err := engRB.Case7(cpRB.accountID, 3)
	if err != nil {
		t.Fatal(err)
	}
	if got7, err := jcRB.case7(cpRB.accountID, 3); err != nil || got7 != len(want7) {
		t.Errorf("case7: join %d (%v), engine %d", got7, err, len(want7))
	}

	// FinBench cases.
	engFB, dFB, err := ds.engine("LDBC-FinBench-SF10")
	if err != nil {
		t.Fatal(err)
	}
	jcFB := newJoinCases(dFB.Graph, cfg.Budget)
	cpFB := paramsFor(dFB)

	want8, _, err := engFB.Case8(cpFB.accountID, 3)
	if err != nil {
		t.Fatal(err)
	}
	if got8, err := jcFB.case8(cpFB.accountID, 3); err != nil || !reflect.DeepEqual(got8, want8) {
		t.Errorf("case8 mismatch (%v): join %d rows, engine %d rows", err, len(got8), len(want8))
	}

	want9, _, err := engFB.Case9(cpFB.personID, 3)
	if err != nil {
		t.Fatal(err)
	}
	if got9, err := jcFB.case9(cpFB.personID, 3); err != nil || !reflect.DeepEqual(got9, want9) {
		t.Errorf("case9 mismatch (%v)", err)
	}

	want10, _, err := engFB.Case10(cpFB.pairA, cpFB.pairB)
	if err != nil {
		t.Fatal(err)
	}
	if got10, err := jcFB.case10(cpFB.pairA, cpFB.pairB); err != nil || got10 != want10 {
		t.Errorf("case10: join %d (%v), engine %d", got10, err, want10)
	}

	want11, _, err := engFB.Case11(cpFB.accountID)
	if err != nil {
		t.Fatal(err)
	}
	if got11, err := jcFB.case11(cpFB.accountID); err != nil || !reflect.DeepEqual(normalizeMidOther(got11), normalizeMidOther(want11)) {
		t.Errorf("case11 mismatch (%v)", err)
	}

	want12, _, err := engFB.Case12(cpFB.loanID, 3)
	if err != nil {
		t.Fatal(err)
	}
	if got12, err := jcFB.case12(cpFB.loanID, 3); err != nil || !reflect.DeepEqual(got12, want12) {
		t.Errorf("case12 mismatch (%v): join %d rows, engine %d rows", err, len(got12), len(want12))
	}
}

func normalizeMidOther(rows []engine.MidOther) []engine.MidOther {
	if len(rows) == 0 {
		return nil
	}
	return rows
}

func TestTimedMapsBudgetToTimeout(t *testing.T) {
	d, err := timed(func() error { return baseline.ErrBudgetExceeded })
	if err != nil || d != Timeout {
		t.Fatalf("timed = %v, %v", d, err)
	}
	if fmtDur(Timeout) != "timeout" || fmtDur(notRun) != "n/a" {
		t.Fatal("fmtDur special values wrong")
	}
}

func TestAblations(t *testing.T) {
	rows, err := Ablations(tiny())
	if err != nil {
		t.Fatal(err)
	}
	groups := map[string]int{}
	for _, r := range rows {
		groups[r.Group]++
		if r.Time <= 0 {
			t.Errorf("%s/%s: no time", r.Group, r.Variant)
		}
	}
	for _, g := range []string{"planner-order", "kernel-crossover", "fixpoint"} {
		if groups[g] < 2 {
			t.Errorf("group %s has %d variants", g, groups[g])
		}
	}
	var buf bytes.Buffer
	PrintAblations(&buf, rows)
	if !strings.Contains(buf.String(), "detect-fixpoint") {
		t.Fatal("print output missing variant")
	}
}
