package bench

import (
	"fmt"
	"io"
	"time"

	"repro/internal/graph"
	"repro/internal/vexpand"
)

// Fig9Row is one rung of the VExpand optimization ladder.
type Fig9Row struct {
	Kernel  vexpand.Kernel
	Time    time.Duration
	Speedup float64 // relative to the straw-man
}

// Fig9Ladder is the ablation order of Figure 9: each rung adds one §4.2
// optimization.
var Fig9Ladder = []vexpand.Kernel{
	vexpand.Strawman,
	vexpand.ColumnMajor,
	vexpand.SIMD,
	vexpand.Hilbert,
}

// Fig9 regenerates Figure 9: a single VExpand (k_max = kmax, ANY,
// undirected) from a Table2Sources-proportional source set on the
// LDBC-SN-SF1000-scale graph, once per kernel rung. The paper's shape:
// each added optimization helps, ~20× total in C++/AVX-512 (smaller in Go;
// see DESIGN.md).
func Fig9(cfg Config, kmax int) ([]Fig9Row, error) {
	ds := newDatasets(cfg)
	d, err := ds.get("LDBC-SN-SF1000")
	if err != nil {
		return nil, err
	}
	g := d.Graph
	numSources := int(float64(Table2Sources) * cfg.scale())
	if numSources < 64 {
		numSources = 64
	}
	if numSources > g.NumVertices() {
		numSources = g.NumVertices()
	}
	sources := make([]graph.VertexID, numSources)
	for i := range sources {
		sources[i] = graph.VertexID(i)
	}
	det := knowsDet(kmax)

	// Warm-up (§6.2: "A warm-up query is executed before the performance
	// test"): build the Hilbert-ordered COO once so the one-time sort is
	// not charged to the first kernel that needs it.
	g.Edges("knows").COO()

	var rows []Fig9Row
	var strawman time.Duration
	var want int
	for i, k := range Fig9Ladder {
		start := time.Now()
		r, err := vexpand.Expand(g, sources, det, vexpand.Options{Kernel: k, Workers: cfg.Workers})
		if err != nil {
			return nil, err
		}
		elapsed := time.Since(start)
		if i == 0 {
			strawman = elapsed
			want = r.PairCount()
		} else if r.PairCount() != want {
			return nil, fmt.Errorf("bench: kernel %v disagrees: %d pairs, want %d", k, r.PairCount(), want)
		}
		row := Fig9Row{Kernel: k, Time: elapsed}
		if elapsed > 0 {
			row.Speedup = float64(strawman) / float64(elapsed)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// PrintFig9 renders Figure 9's ladder.
func PrintFig9(w io.Writer, rows []Fig9Row) {
	header(w, "Figure 9 — VExpand optimization ladder (speedup vs straw-man)")
	fmt.Fprintf(w, "%-16s %-14s %-10s\n", "Kernel", "Time", "Speedup")
	for _, r := range rows {
		fmt.Fprintf(w, "%-16s %-14s %8.2fx\n", r.Kernel, fmtDur(r.Time), r.Speedup)
	}
}
