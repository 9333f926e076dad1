package mintersect

import (
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/graph"
	"repro/internal/pattern"
	"repro/internal/vexpand"
)

// TestParallelRunMatchesSerialUnderRace drives the seed-pair fan-out of Run
// with several workers on a triangle pattern over a random graph, counting
// and enumerating, and checks the count and seed pairs against the serial
// execution. Under `go test -race` this stresses the claim that per-worker
// FirstCols slices make the fan-out write-conflict-free.
func TestParallelRunMatchesSerialUnderRace(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		prev := runtime.GOMAXPROCS(4)
		t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	}
	rng := rand.New(rand.NewSource(7))
	const n = 420
	b := graph.NewBuilder(n)
	for i := 0; i < 4*n; i++ {
		b.AddEdge("knows", uint32(rng.Intn(n)), uint32(rng.Intn(n)))
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}

	var aCands, bCands, cCands []graph.VertexID
	for v := 0; v < n; v++ {
		switch v % 3 {
		case 0:
			aCands = append(aCands, graph.VertexID(v))
		case 1:
			bCands = append(bCands, graph.VertexID(v))
		case 2:
			cCands = append(cCands, graph.VertexID(v))
		}
	}
	d := pattern.Determiner{KMin: 1, KMax: 2, Dir: graph.Both, Type: pattern.Any, EdgeLabels: []string{"knows"}}
	expand := func(later []graph.VertexID) *vexpand.Result {
		r, err := vexpand.Expand(g, later, d, vexpand.Options{})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	mAB := expand(bCands).Reach
	mAC := expand(cCands).Reach
	mBC := expand(cCands).Reach

	input := func() *Input {
		return &Input{
			NumPatternVertices: 3,
			FirstCols:          aCands,
			First:              &EdgeMatrix{EarlierPos: 0, M: mAB},
			RowCandidates:      [][]graph.VertexID{nil, bCands, cCands},
			Ext: [][]*EdgeMatrix{nil, nil, {
				{EarlierPos: 0, M: mAC},
				{EarlierPos: 1, M: mBC},
			}},
		}
	}

	for _, countOnly := range []bool{false, true} {
		serial, err := Run(input(), Options{CountOnly: countOnly, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		parallel, err := Run(input(), Options{CountOnly: countOnly, Workers: 8})
		if err != nil {
			t.Fatal(err)
		}
		if serial.Count != parallel.Count {
			t.Fatalf("countOnly=%v: serial count %d, parallel count %d", countOnly, serial.Count, parallel.Count)
		}
		if serial.Stats.SeedPairs != parallel.Stats.SeedPairs {
			t.Fatalf("countOnly=%v: seed pairs differ: %d vs %d", countOnly, serial.Stats.SeedPairs, parallel.Stats.SeedPairs)
		}
		if serial.Count == 0 {
			t.Fatal("triangle pattern found no matches; test graph too sparse to stress the fan-out")
		}
	}
}
