package bench

import (
	"fmt"
	"io"
	"time"

	"repro/internal/engine"
	"repro/internal/vexpand"
)

// Fig7Row is one case's execution-time series over k_max.
type Fig7Row struct {
	Case    int
	Dataset string
	// Times[k-1] is the execution time at k_max = k.
	Times []time.Duration
}

// Fig7 regenerates Figure 7: VertexSurge execution time for Cases 1–7 as
// k_max sweeps 1..maxK. Cases 1–5 run on the LDBC-SN-SF1000-scale graph,
// 6–7 on Rabobank, as in the paper; the expected shape is (at most) linear
// growth in k_max.
func Fig7(cfg Config, maxK int) ([]Fig7Row, error) {
	// The figure's claim is about the bit-matrix VExpand ("increasing
	// kmax will only proportionally increase the overall execution
	// time"), so the matrix kernel is pinned — Auto would switch to BFS
	// at small k and hide the trend behind the crossover.
	ds := newDatasets(cfg)
	dSN, err := ds.get("LDBC-SN-SF1000")
	if err != nil {
		return nil, err
	}
	engSN := engine.New(dSN.Graph, engine.Options{Workers: cfg.Workers, Kernel: vexpand.Hilbert})
	cpSN := paramsFor(dSN)
	dRB, err := ds.get("Rabobank")
	if err != nil {
		return nil, err
	}
	engRB := engine.New(dRB.Graph, engine.Options{Workers: cfg.Workers, Kernel: vexpand.Hilbert})
	cpRB := paramsFor(dRB)

	runs := []struct {
		num     int
		dataset string
		run     func(kmax int) error
	}{
		{1, dSN.Name, func(k int) error { _, _, err := engSN.Case1(k); return err }},
		{2, dSN.Name, func(k int) error { _, _, err := engSN.Case2(k, 100); return err }},
		{3, dSN.Name, func(k int) error { _, _, err := engSN.Case3(k, 100); return err }},
		{4, dSN.Name, func(k int) error { _, _, err := engSN.Case4(k); return err }},
		{5, dSN.Name, func(k int) error { _, _, err := engSN.Case5(cpSN.personIDs, max(k, 2)); return err }},
		{6, dRB.Name, func(k int) error { _, _, err := engRB.Case6(k); return err }},
		{7, dRB.Name, func(k int) error { _, _, err := engRB.Case7(cpRB.accountID, k); return err }},
	}

	var rows []Fig7Row
	for _, r := range runs {
		row := Fig7Row{Case: r.num, Dataset: r.dataset}
		// Warm-up run (§6.2).
		if err := r.run(1); err != nil {
			return nil, fmt.Errorf("bench: fig7 case %d warm-up: %w", r.num, err)
		}
		for k := 1; k <= maxK; k++ {
			t, err := timed(func() error { return r.run(k) })
			if err != nil {
				return nil, fmt.Errorf("bench: fig7 case %d k=%d: %w", r.num, k, err)
			}
			row.Times = append(row.Times, t)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// PrintFig7 renders Figure 7's series.
func PrintFig7(w io.Writer, rows []Fig7Row) {
	header(w, "Figure 7 — VertexSurge execution time vs k_max (linear trend expected)")
	if len(rows) == 0 {
		return
	}
	fmt.Fprintf(w, "%-6s %-20s", "Case", "Dataset")
	for k := 1; k <= len(rows[0].Times); k++ {
		fmt.Fprintf(w, " %12s", fmt.Sprintf("k=%d", k))
	}
	fmt.Fprintln(w)
	for _, r := range rows {
		fmt.Fprintf(w, "C%-5d %-20s", r.Case, r.Dataset)
		for _, t := range r.Times {
			fmt.Fprintf(w, " %12s", fmtDur(t))
		}
		fmt.Fprintln(w)
	}
}
