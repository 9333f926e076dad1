// influence runs the paper's Case 5 (influence assessment): for a batch of
// persons, count their distinct 2- and 3-hop neighbors — the "direct and
// indirect followers" metric — exercising multi-source VExpand and the
// per-row aggregation fast path, then compares kernel variants on the same
// expansion.
package main

import (
	"flag"
	"fmt"
	"log"
	"sort"
	"time"

	vertexsurge "repro"
)

func main() {
	log.SetFlags(0)
	scale := flag.Float64("scale", 0.3, "dataset scale relative to Epinions")
	batch := flag.Int("batch", 500, "number of persons to assess")
	flag.Parse()

	db, err := vertexsurge.Generate("Epinions", *scale)
	if err != nil {
		log.Fatal(err)
	}
	g := db.Graph()
	fmt.Printf("graph: %d persons, %d knows edges\n", g.NumVertices(), g.NumEdges())

	if *batch > g.NumVertices() {
		*batch = g.NumVertices()
	}
	ids := make([]int64, *batch)
	for i := range ids {
		ids[i] = int64(1000 + i*(g.NumVertices() / *batch))
	}

	start := time.Now()
	rows, tm, err := db.Engine().Case5(ids, 3)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("assessed %d persons in %s (expand %s)\n",
		len(rows), time.Since(start).Round(time.Microsecond), tm.Expand.Round(time.Microsecond))

	sort.Slice(rows, func(i, j int) bool { return rows[i].Count > rows[j].Count })
	fmt.Println("most influential (distinct 2..3-hop neighbors):")
	for i, r := range rows {
		if i == 10 {
			break
		}
		fmt.Printf("  person %d: %d\n", r.ID, r.Count)
	}

	// The same multi-source expansion on each kernel rung of Figure 9:
	// identical results, different speed.
	sources := make([]vertexsurge.VertexID, len(ids))
	for i, id := range ids {
		v, err := db.VertexByID(id)
		if err != nil {
			log.Fatal(err)
		}
		sources[i] = v
	}
	det := vertexsurge.Determiner{KMin: 2, KMax: 3, Dir: vertexsurge.Both,
		Type: vertexsurge.Any, EdgeLabels: []string{"knows"}}
	// Warm-up so the one-time Hilbert edge ordering is not charged to the
	// first kernel measured.
	warm := vertexsurge.FromGraph(g, vertexsurge.Options{Kernel: vertexsurge.KernelHilbert})
	if _, err := warm.Expand(sources[:1], det, false); err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nkernel comparison on the same expansion:")
	for _, k := range []vertexsurge.Kernel{
		vertexsurge.KernelStrawman, vertexsurge.KernelSIMD,
		vertexsurge.KernelHilbert, vertexsurge.KernelBFS,
	} {
		kdb := vertexsurge.FromGraph(g, vertexsurge.Options{Kernel: k})
		t0 := time.Now()
		r, err := kdb.Expand(sources, det, false)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-14s %10s  (%d reachable pairs)\n",
			k, time.Since(t0).Round(time.Microsecond), r.PairCount())
	}
}
