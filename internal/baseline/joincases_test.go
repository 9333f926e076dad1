package baseline

import (
	"reflect"
	"testing"

	"repro/internal/datagen"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/vexpand"
)

// tinyDataset generates a paper dataset small enough for unit tests.
func tinyDataset(t *testing.T, name string) *datagen.Dataset {
	t.Helper()
	ds, err := datagen.Generate(name, 0.005)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// TestJoinCasesAgreeWithEngine is the deep validation behind Figure 6: the
// join baseline must compute identical answers to VertexSurge on every
// case, so measured gaps are purely about execution strategy.
func TestJoinCasesAgreeWithEngine(t *testing.T) {
	const budget = 5_000_000
	setup := func(name string) (*engine.Engine, *JoinCases, CaseParams) {
		ds := tinyDataset(t, name)
		return engine.New(ds.Graph, engine.Options{}), NewJoinCases(ds.Graph, budget), ParamsFor(ds)
	}

	// Social cases on LastFM.
	engSN, jcSN, cpSN := setup("LastFM")
	const kmax = 3

	if want, _, err := engSN.Case1(kmax); err != nil {
		t.Fatal(err)
	} else if got, err := jcSN.Case1(kmax); err != nil || got != want {
		t.Errorf("case1: join %d (%v), engine %d", got, err, want)
	}

	want2, _, err := engSN.Case2(kmax, 0)
	if err != nil {
		t.Fatal(err)
	}
	got2, err := jcSN.Case2(kmax, 0)
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
	if got3, err := jcSN.Case3(kmax, 0); err != nil || !reflect.DeepEqual(got3, want3) {
		t.Errorf("case3 mismatch (%v)", err)
	}

	if want, _, err := engSN.Case4(2); err != nil {
		t.Fatal(err)
	} else if got, err := jcSN.Case4(2); err != nil || got != want {
		t.Errorf("case4: join %d (%v), engine %d", got, err, want)
	}

	want5, _, err := engSN.Case5(cpSN.PersonIDs, kmax)
	if err != nil {
		t.Fatal(err)
	}
	if got5, err := jcSN.Case5(cpSN.PersonIDs, kmax); err != nil || !reflect.DeepEqual(got5, want5) {
		t.Errorf("case5 mismatch (%v)", err)
	}

	// Bank cases on Rabobank.
	engRB, jcRB, cpRB := setup("Rabobank")
	if want, _, err := engRB.Case6(4); err != nil {
		t.Fatal(err)
	} else if got, err := jcRB.Case6(4); err != nil || got != want {
		t.Errorf("case6: join %d (%v), engine %d", got, err, want)
	}
	want7, _, err := engRB.Case7(cpRB.AccountID, 3)
	if err != nil {
		t.Fatal(err)
	}
	if got7, err := jcRB.Case7(cpRB.AccountID, 3); err != nil || got7 != len(want7) {
		t.Errorf("case7: join %d (%v), engine %d", got7, err, len(want7))
	}

	// FinBench cases.
	engFB, jcFB, cpFB := setup("LDBC-FinBench-SF10")

	want8, _, err := engFB.Case8(cpFB.AccountID, 3)
	if err != nil {
		t.Fatal(err)
	}
	if got8, err := jcFB.Case8(cpFB.AccountID, 3); err != nil || !reflect.DeepEqual(got8, want8) {
		t.Errorf("case8 mismatch (%v): join %d rows, engine %d rows", err, len(got8), len(want8))
	}

	want9, _, err := engFB.Case9(cpFB.PersonID, 3)
	if err != nil {
		t.Fatal(err)
	}
	if got9, err := jcFB.Case9(cpFB.PersonID, 3); err != nil || !reflect.DeepEqual(got9, want9) {
		t.Errorf("case9 mismatch (%v)", err)
	}

	want10, _, err := engFB.Case10(cpFB.PairA, cpFB.PairB)
	if err != nil {
		t.Fatal(err)
	}
	if got10, err := jcFB.Case10(cpFB.PairA, cpFB.PairB); err != nil || got10 != want10 {
		t.Errorf("case10: join %d (%v), engine %d", got10, err, want10)
	}

	want11, _, err := engFB.Case11(cpFB.AccountID)
	if err != nil {
		t.Fatal(err)
	}
	if got11, err := jcFB.Case11(cpFB.AccountID); err != nil || !reflect.DeepEqual(normalizeMidOther(got11), normalizeMidOther(want11)) {
		t.Errorf("case11 mismatch (%v)", err)
	}

	want12, _, err := engFB.Case12(cpFB.LoanID, 3)
	if err != nil {
		t.Fatal(err)
	}
	if got12, err := jcFB.Case12(cpFB.LoanID, 3); err != nil || !reflect.DeepEqual(got12, want12) {
		t.Errorf("case12 mismatch (%v): join %d rows, engine %d rows", err, len(got12), len(want12))
	}
}

func normalizeMidOther(rows []engine.MidOther) []engine.MidOther {
	if len(rows) == 0 {
		return nil
	}
	return rows
}

// TestTable2RatioGrows pins Table 2's shape: join walks over VExpand's
// intermediate pairs is 1 at k_max = 1 (every 1-edge walk is distinct),
// then grows strictly with k_max (the paper's 1.52, 8.51).
func TestTable2RatioGrows(t *testing.T) {
	g := tinyDataset(t, "LDBC-SN-SF1000").Graph
	sources := make([]graph.VertexID, 102) // Table 2's 20 480 at scale 0.005
	for i := range sources {
		sources[i] = graph.VertexID(i)
	}
	j := NewJoinEngine(g)
	prev := 0.0
	for kmax := 1; kmax <= 3; kmax++ {
		d := knowsDet(1, kmax)
		walks, err := j.WalkCountDP(sources, d)
		if err != nil {
			t.Fatal(err)
		}
		r, err := vexpand.Expand(g, sources, d, vexpand.Options{Kernel: vexpand.Hilbert})
		if err != nil {
			t.Fatal(err)
		}
		ratio := walks / float64(r.Stats.IntermediateResults)
		if kmax == 1 && (ratio < 0.999 || ratio > 1.001) {
			t.Errorf("k=1 ratio = %f, want 1", ratio)
		}
		if kmax > 1 && ratio <= prev {
			t.Errorf("ratio not growing: %f then %f", prev, ratio)
		}
		prev = ratio
	}
}
