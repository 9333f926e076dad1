package baseline

import (
	"errors"
	"testing"

	"repro/internal/datagen"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/pattern"
)

func socialGraph(t testing.TB) *graph.Graph {
	t.Helper()
	g, err := datagen.SocialNetwork(datagen.SocialConfig{
		NumVertices: 200, NumEdges: 600, Seed: 5, CommunityFraction: 0.35,
	})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func vertsOf(g *graph.Graph, label string) []graph.VertexID {
	return g.LabelVertices(label)
}

// The baselines exist to be compared against VertexSurge; above all they
// must return the same answers.
func TestJoinEngineAgreesWithVertexSurge(t *testing.T) {
	g := socialGraph(t)
	vs := engine.New(g, engine.Options{})
	j := NewJoinEngine(g)

	for _, kmax := range []int{1, 2, 3} {
		want, _, err := vs.Case1(kmax)
		if err != nil {
			t.Fatal(err)
		}
		got, st, err := j.CountPairs(vertsOf(g, "SIGA"), vertsOf(g, "SIGA"), knowsDet(1, kmax))
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("CountPairs(kmax=%d) = %d, VertexSurge = %d", kmax, got, want)
		}
		if st.IntermediateTuples == 0 {
			t.Error("join produced no intermediates")
		}
	}

	for _, kmax := range []int{1, 2} {
		want, _, err := vs.Case4(kmax)
		if err != nil {
			t.Fatal(err)
		}
		d := knowsDet(1, kmax)
		got, _, err := j.CountTriangle(vertsOf(g, "SIGA"), vertsOf(g, "SIGB"), vertsOf(g, "SIGC"), d, d, d)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("CountTriangle(kmax=%d) = %d, VertexSurge = %d", kmax, got, want)
		}
	}
}

func TestGPMEngineAgreesWithVertexSurge(t *testing.T) {
	g := socialGraph(t)
	vs := engine.New(g, engine.Options{})
	p := NewGPMEngine(g)

	want1, _, err := vs.Case1(2)
	if err != nil {
		t.Fatal(err)
	}
	got1, spent, err := p.CountPairs(vertsOf(g, "SIGA"), vertsOf(g, "SIGA"), knowsDet(1, 2))
	if err != nil {
		t.Fatal(err)
	}
	if got1 != want1 {
		t.Errorf("GPM CountPairs = %d, VertexSurge = %d", got1, want1)
	}
	if spent == 0 {
		t.Error("GPM enumerated nothing")
	}

	want4, _, err := vs.Case4(2)
	if err != nil {
		t.Fatal(err)
	}
	got4, _, err := p.CountTriangle(vertsOf(g, "SIGA"), vertsOf(g, "SIGB"), vertsOf(g, "SIGC"), knowsDet(1, 2))
	if err != nil {
		t.Fatal(err)
	}
	if got4 != want4 {
		t.Errorf("GPM CountTriangle = %d, VertexSurge = %d", got4, want4)
	}
}

func TestJoinExpandShortestSemantics(t *testing.T) {
	// Chain 0→1→2→3; SHORTEST from 0 with kmin=2..kmax=3 is {2,3}.
	b := graph.NewBuilder(4)
	for i := 0; i < 3; i++ {
		b.AddEdge("e", uint32(i), uint32(i+1))
	}
	g := b.MustBuild()
	j := NewJoinEngine(g)
	d := pattern.Determiner{KMin: 2, KMax: 3, Dir: graph.Forward, Type: pattern.Shortest, EdgeLabels: []string{"e"}}
	reach, _, err := j.JoinExpand([]graph.VertexID{0}, d)
	if err != nil {
		t.Fatal(err)
	}
	if len(reach[0]) != 2 || !reach[0][2] || !reach[0][3] {
		t.Fatalf("reach = %v", reach[0])
	}
}

func TestJoinBudgetTrips(t *testing.T) {
	g := socialGraph(t)
	j := NewJoinEngine(g)
	j.Budget = 100 // absurdly small
	_, _, err := j.CountPairs(vertsOf(g, "SIGA"), vertsOf(g, "SIGA"), knowsDet(1, 4))
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("err = %v, want ErrBudgetExceeded", err)
	}
}

func TestGPMBudgetTrips(t *testing.T) {
	g := socialGraph(t)
	p := NewGPMEngine(g)
	p.Budget = 50
	_, _, err := p.CountTriangle(vertsOf(g, "SIGA"), vertsOf(g, "SIGB"), vertsOf(g, "SIGC"), knowsDet(1, 2))
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("err = %v, want ErrBudgetExceeded", err)
	}
}

func TestJoinIntermediatesGrowWithKmax(t *testing.T) {
	// The Figure 2b / Table 2 phenomenon: flat join intermediates grow
	// much faster than distinct results as kmax grows.
	g := socialGraph(t)
	j := NewJoinEngine(g)
	var prev int64
	for _, kmax := range []int{1, 2, 3} {
		_, st, err := j.CountPairs(vertsOf(g, "SIGA"), vertsOf(g, "SIGA"), knowsDet(1, kmax))
		if err != nil {
			t.Fatal(err)
		}
		if st.IntermediateTuples <= prev {
			t.Fatalf("intermediates did not grow: %d then %d", prev, st.IntermediateTuples)
		}
		prev = st.IntermediateTuples
	}
}

func TestWalkCountDPMatchesEnumeration(t *testing.T) {
	g := socialGraph(t)
	j := NewJoinEngine(g)
	siga := vertsOf(g, "SIGA")
	for _, kmax := range []int{1, 2, 3} {
		d := knowsDet(1, kmax)
		_, st, err := j.JoinExpand(siga, d)
		if err != nil {
			t.Fatal(err)
		}
		dp, err := j.WalkCountDP(siga, d)
		if err != nil {
			t.Fatal(err)
		}
		if float64(st.IntermediateTuples) != dp {
			t.Errorf("kmax=%d: enumerated %d, DP %f", kmax, st.IntermediateTuples, dp)
		}
	}
}

func TestWalkCountDPErrors(t *testing.T) {
	g := socialGraph(t)
	j := NewJoinEngine(g)
	if _, err := j.WalkCountDP(nil, pattern.Determiner{KMin: 1, KMax: pattern.Unbounded, Type: pattern.Shortest, EdgeLabels: []string{"knows"}}); err == nil {
		t.Error("unbounded accepted")
	}
	if _, err := j.WalkCountDP(nil, knowsDetWithLabel(1, 2, "nope")); err == nil {
		t.Error("unknown label accepted")
	}
}

func knowsDetWithLabel(kmin, kmax int, label string) pattern.Determiner {
	return pattern.Determiner{KMin: kmin, KMax: kmax, Dir: graph.Both, Type: pattern.Any,
		EdgeLabels: []string{label}}
}

func TestJoinExpandErrors(t *testing.T) {
	g := socialGraph(t)
	j := NewJoinEngine(g)
	if _, _, err := j.JoinExpand(nil, pattern.Determiner{KMin: 3, KMax: 1}); err == nil {
		t.Error("invalid determiner accepted")
	}
	if _, _, err := j.JoinExpand(nil, pattern.Determiner{KMin: 1, KMax: pattern.Unbounded, Type: pattern.Shortest, EdgeLabels: []string{"knows"}}); err == nil {
		t.Error("unbounded kmax accepted")
	}
	if _, _, err := j.JoinExpand(nil, knowsDetWithLabel(1, 2, "nope")); err == nil {
		t.Error("unknown label accepted")
	}
}

func TestGPMErrors(t *testing.T) {
	g := socialGraph(t)
	p := NewGPMEngine(g)
	shortest := pattern.Determiner{KMin: 1, KMax: 2, Dir: graph.Both, Type: pattern.Shortest, EdgeLabels: []string{"knows"}}
	if _, _, err := p.CountPairs(nil, nil, shortest); err == nil {
		t.Error("SHORTEST accepted by GPM conversion")
	}
	if _, _, err := p.CountPairs(nil, nil, knowsDetWithLabel(1, 2, "nope")); err == nil {
		t.Error("unknown label accepted")
	}
}

func TestGPMCountReachFromAgreesWithVertexSurge(t *testing.T) {
	g, err := datagen.BankGraph(datagen.BankConfig{
		NumAccounts: 200, NumTransfers: 500, Seed: 17, RiskFraction: 0.1,
	})
	if err != nil {
		t.Fatal(err)
	}
	vs := engine.New(g, engine.Options{})
	p := NewGPMEngine(g)
	src, _ := g.FindByInt64("id", 1010)
	d := pattern.Determiner{KMin: 1, KMax: 3, Dir: graph.Forward, Type: pattern.Any,
		EdgeLabels: []string{"transfer"}}
	got, spent, err := p.CountReachFrom(src, g.LabelVertices("Account"), d)
	if err != nil {
		t.Fatal(err)
	}
	if spent == 0 {
		t.Error("no walks enumerated")
	}
	want, _, err := vs.Case7(1010, 3)
	if err != nil {
		t.Fatal(err)
	}
	if got != int64(len(want)) {
		t.Errorf("CountReachFrom = %d, VertexSurge = %d", got, len(want))
	}
	// Budget trip.
	p.Budget = 1
	if _, _, err := p.CountReachFrom(src, g.LabelVertices("Account"), d); !errors.Is(err, ErrBudgetExceeded) {
		t.Errorf("err = %v, want budget exceeded", err)
	}
	// SHORTEST rejected.
	d.Type = pattern.Shortest
	p.Budget = 0
	if _, _, err := p.CountReachFrom(src, nil, d); err == nil {
		t.Error("SHORTEST accepted")
	}
}
