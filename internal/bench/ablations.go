package bench

import (
	"fmt"
	"io"
	"time"

	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/pattern"
	"repro/internal/vexpand"
)

// AblationRow is one measurement of a design-decision ablation.
type AblationRow struct {
	Group   string
	Variant string
	Time    time.Duration
}

// Ablations measures the design decisions DESIGN.md calls out, beyond the
// paper's own Figure 9 ladder: the planner's seed ordering, the BFS-vs-
// matrix kernel crossover, and the opt-in fixpoint early exit.
func Ablations(cfg Config) ([]AblationRow, error) {
	ds := newDatasets(cfg)
	d, err := ds.get("LDBC-SN-SF100")
	if err != nil {
		return nil, err
	}
	g := d.Graph
	eng := engine.New(g, engine.Options{Workers: cfg.Workers})
	var rows []AblationRow
	add := func(group, variant string, fn func() error) error {
		if err := fn(); err != nil { // warm-up
			return err
		}
		t, err := timed(fn)
		if err != nil {
			return err
		}
		rows = append(rows, AblationRow{Group: group, Variant: variant, Time: t})
		return nil
	}

	// 1. Planner seed ordering (§5.2): one pinned vertex vs all Persons.
	pat := &pattern.Pattern{
		Vertices: []pattern.Vertex{
			{Name: "p", PropEq: map[string]any{"id": int64(1000)}},
			{Name: "q", Labels: []string{"Person"}},
		},
		Edges: []pattern.Edge{{Src: "p", Dst: "q", D: knowsDet(2)}},
	}
	if err := add("planner-order", "planner", func() error {
		_, err := eng.Match(pat, engine.MatchOptions{CountOnly: true})
		return err
	}); err != nil {
		return nil, err
	}
	if err := add("planner-order", "forced-worst", func() error {
		_, err := eng.Match(pat, engine.MatchOptions{CountOnly: true, Order: []int{0, 1}})
		return err
	}); err != nil {
		return nil, err
	}

	// 2. Kernel crossover: BFS vs matrix at growing |S|.
	det := knowsDet(3)
	for _, nSources := range []int{8, 512} {
		sources := make([]graph.VertexID, nSources)
		for i := range sources {
			sources[i] = graph.VertexID(i % g.NumVertices())
		}
		for _, k := range []vexpand.Kernel{vexpand.BFS, vexpand.Hilbert} {
			if err := add("kernel-crossover", fmt.Sprintf("S=%d/%s", nSources, k), func() error {
				_, err := vexpand.Expand(g, sources, det, vexpand.Options{Kernel: k, Workers: cfg.Workers})
				return err
			}); err != nil {
				return nil, err
			}
		}
	}

	// 3. Fixpoint early exit at large k_max on the dense graph.
	sources := make([]graph.VertexID, min(512, g.NumVertices()))
	for i := range sources {
		sources[i] = graph.VertexID(i)
	}
	longDet := knowsDet(12)
	if err := add("fixpoint", "paper-faithful", func() error {
		_, err := vexpand.Expand(g, sources, longDet, vexpand.Options{Kernel: vexpand.Hilbert, Workers: cfg.Workers})
		return err
	}); err != nil {
		return nil, err
	}
	if err := add("fixpoint", "detect-fixpoint", func() error {
		_, err := vexpand.Expand(g, sources, longDet, vexpand.Options{
			Kernel: vexpand.Hilbert, Workers: cfg.Workers, DetectFixpoint: true,
		})
		return err
	}); err != nil {
		return nil, err
	}
	return rows, nil
}

// PrintAblations renders the ablation table with per-group speedups
// relative to each group's first variant.
func PrintAblations(w io.Writer, rows []AblationRow) {
	header(w, "Ablations — design decisions beyond the paper's Figure 9 ladder")
	fmt.Fprintf(w, "%-18s %-22s %-14s %-10s\n", "Group", "Variant", "Time", "vs first")
	first := map[string]time.Duration{}
	for _, r := range rows {
		if _, ok := first[r.Group]; !ok {
			first[r.Group] = r.Time
		}
		rel := "-"
		if r.Time > 0 {
			rel = fmt.Sprintf("%.2fx", float64(first[r.Group])/float64(r.Time))
		}
		fmt.Fprintf(w, "%-18s %-22s %-14s %-10s\n", r.Group, r.Variant, fmtDur(r.Time), rel)
	}
}
