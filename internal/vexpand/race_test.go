package vexpand

import (
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/graph"
	"repro/internal/pattern"
)

// raceGraph builds a random graph large enough that the source set spans
// several 512-row stacks, so the worker fan-outs in parallelCOOStep and
// runBFS genuinely run concurrently under `go test -race`.
func raceGraph(t testing.TB, vertices, edges int) *graph.Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(42))
	b := graph.NewBuilder(vertices)
	for i := 0; i < edges; i++ {
		b.AddEdge("knows", uint32(rng.Intn(vertices)), uint32(rng.Intn(vertices)))
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func ensureParallel(t testing.TB) {
	t.Helper()
	if runtime.GOMAXPROCS(0) < 2 {
		prev := runtime.GOMAXPROCS(4)
		t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	}
}

// TestParallelExpandMatchesSerialUnderRace drives every parallel expand
// path — the stack-partitioned COO kernels and the per-source BFS kernel —
// with more sources than one stack holds and multiple workers, comparing
// against the single-worker result. Run under -race this stresses the
// conflict-freedom claim of Figure 4a (stacks are disjoint row bands).
func TestParallelExpandMatchesSerialUnderRace(t *testing.T) {
	ensureParallel(t)
	g := raceGraph(t, 1400, 7000)
	sources := make([]graph.VertexID, 1152) // 3 stacks: 512+512+128
	for i := range sources {
		sources[i] = graph.VertexID(i)
	}

	for _, tc := range []struct {
		name   string
		kernel Kernel
		d      pattern.Determiner
	}{
		{"hilbert/any", Hilbert, pattern.Determiner{KMin: 1, KMax: 3, Dir: graph.Both, Type: pattern.Any, EdgeLabels: []string{"knows"}}},
		{"simd/shortest", SIMD, pattern.Determiner{KMin: 1, KMax: 3, Dir: graph.Forward, Type: pattern.Shortest, EdgeLabels: []string{"knows"}}},
		{"bfs/shortest", BFS, pattern.Determiner{KMin: 1, KMax: 3, Dir: graph.Both, Type: pattern.Shortest, EdgeLabels: []string{"knows"}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			serial, err := Expand(g, sources, tc.d, Options{Kernel: tc.kernel, Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			parallel, err := Expand(g, sources, tc.d, Options{Kernel: tc.kernel, Workers: 8})
			if err != nil {
				t.Fatal(err)
			}
			if !serial.Reach.Equal(parallel.Reach) {
				t.Fatalf("parallel Reach differs from serial (kernel %s)", tc.kernel)
			}
			if serial.Stats.IntermediateResults != parallel.Stats.IntermediateResults {
				t.Fatalf("intermediate results differ: serial %d, parallel %d",
					serial.Stats.IntermediateResults, parallel.Stats.IntermediateResults)
			}
		})
	}
}

// TestParallelBFSKeepPerStepUnderRace exercises the BFS kernel's per-row
// distance recording across workers: rows are partitioned on stack
// boundaries, and each worker writes only its own rows' maps.
func TestParallelBFSKeepPerStepUnderRace(t *testing.T) {
	ensureParallel(t)
	g := raceGraph(t, 1300, 5200)
	sources := make([]graph.VertexID, 1100)
	for i := range sources {
		sources[i] = graph.VertexID(i)
	}
	d := pattern.Determiner{KMin: 1, KMax: 4, Dir: graph.Both, Type: pattern.Shortest, EdgeLabels: []string{"knows"}}

	serial, err := Expand(g, sources, d, Options{Kernel: BFS, Workers: 1, KeepPerStep: true})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Expand(g, sources, d, Options{Kernel: BFS, Workers: 8, KeepPerStep: true})
	if err != nil {
		t.Fatal(err)
	}
	if !serial.Reach.Equal(parallel.Reach) {
		t.Fatal("parallel BFS Reach differs from serial")
	}
	// Spot-check minimal lengths across rows owned by different workers.
	for _, row := range []int{0, 511, 512, 1023, 1024, 1099} {
		for dst := 0; dst < g.NumVertices(); dst += 97 {
			sl, sok := serial.MinLength(row, graph.VertexID(dst))
			pl, pok := parallel.MinLength(row, graph.VertexID(dst))
			if sok != pok || sl != pl {
				t.Fatalf("MinLength(%d, %d): serial (%d,%v) vs parallel (%d,%v)", row, dst, sl, sok, pl, pok)
			}
		}
	}
}
