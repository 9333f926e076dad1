package cypher

import (
	"context"
	"slices"
	"testing"

	"repro/internal/engine"
	"repro/internal/graph"
)

// TestLabelVerticesListsSurviveQueries poisons the shared read-only slice
// Graph.LabelVertices hands to every query plan (candidate lists, first
// columns, row candidates): a path that sorted, appended to, or wrote it in
// place would silently corrupt every later query. It snapshots every
// label's list, runs the twelve paper cases through the engine and the
// twelve paper queries through Cypher, materialized and (where streamable)
// streamed, at Workers 1 and 4, then requires every list unchanged.
func TestLabelVerticesListsSurviveQueries(t *testing.T) {
	social, bank := socialEngine(t).Graph(), bankEngine(t).Graph()
	finEng, lay := finEngine(t)
	fin := finEng.Graph()
	ids := fin.Prop("id").(graph.Int64Column)
	own := fin.Edges("own")
	var person graph.VertexID
	for p := lay.PersonLo; p < lay.PersonHi; p++ {
		if len(own.Neighbors(p, graph.Forward)) > 0 {
			person = p
			break
		}
	}
	acct := ids[withdrawTarget(finEng, lay)]
	personIDs := []int64{1001, 1015, 1044}

	graphs := []*graph.Graph{social, bank, fin}
	snapshot := make([]map[string][]graph.VertexID, len(graphs))
	for i, g := range graphs {
		snapshot[i] = map[string][]graph.VertexID{}
		for _, name := range g.VertexLabels() {
			snapshot[i][name] = slices.Clone(g.LabelVertices(name))
		}
	}

	cases := []struct {
		g   *graph.Graph
		run func(e *engine.Engine) error
	}{
		{social, func(e *engine.Engine) error { _, _, err := e.Case1(3); return err }},
		{social, func(e *engine.Engine) error { _, _, err := e.Case2(3, 100); return err }},
		{social, func(e *engine.Engine) error { _, _, err := e.Case3(3, 100); return err }},
		{social, func(e *engine.Engine) error { _, _, err := e.Case4(2); return err }},
		{social, func(e *engine.Engine) error { _, _, err := e.Case5(personIDs, 3); return err }},
		{bank, func(e *engine.Engine) error { _, _, err := e.Case6(6); return err }},
		{bank, func(e *engine.Engine) error { _, _, err := e.Case7(1042, 3); return err }},
		{fin, func(e *engine.Engine) error { _, _, err := e.Case8(ids[lay.AccountLo+5], 3); return err }},
		{fin, func(e *engine.Engine) error { _, _, err := e.Case9(ids[person], 3); return err }},
		{fin, func(e *engine.Engine) error {
			_, _, err := e.Case10(ids[lay.AccountLo+1], ids[lay.AccountLo+77])
			return err
		}},
		{fin, func(e *engine.Engine) error { _, _, err := e.Case11(acct); return err }},
		{fin, func(e *engine.Engine) error { _, _, err := e.Case12(ids[lay.LoanLo+1], 3); return err }},
	}
	queries := []struct {
		g      *graph.Graph
		params map[string]any
	}{
		{social, nil}, {social, nil}, {social, nil}, {social, nil},
		{social, map[string]any{"person_ids": personIDs}},
		{bank, nil},
		{bank, map[string]any{"rid": int64(1042)}},
		{fin, map[string]any{"id": ids[lay.AccountLo+5]}},
		{fin, map[string]any{"id": ids[person]}},
		{fin, map[string]any{"id1": ids[lay.AccountLo+1], "id2": ids[lay.AccountLo+77]}},
		{fin, map[string]any{"id": acct}},
		{fin, map[string]any{"id": ids[lay.LoanLo+1]}},
	}

	for _, workers := range []int{1, 4} {
		for i, c := range cases {
			if err := c.run(engine.New(c.g, engine.Options{Workers: workers})); err != nil {
				t.Fatalf("workers=%d case %d: %v", workers, i+1, err)
			}
		}
		for i, src := range paperQueries {
			eng := engine.New(queries[i].g, engine.Options{Workers: workers})
			q, err := Parse(src)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := Run(eng, q, queries[i].params); err != nil {
				t.Fatalf("workers=%d query %d: %v", workers, i+1, err)
			}
			err = Stream(context.Background(), eng, q, queries[i].params, func(context.Context, []any) error { return nil })
			if err != nil {
				t.Fatalf("workers=%d streamed query %d: %v", workers, i+1, err)
			}
		}
	}

	for i, g := range graphs {
		for name, want := range snapshot[i] {
			if got := g.LabelVertices(name); !slices.Equal(got, want) {
				t.Errorf("graph %d: LabelVertices(%q) changed under queries: %d ids, want %d", i, name, len(got), len(want))
			}
		}
	}
}
