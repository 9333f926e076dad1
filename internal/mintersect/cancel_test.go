package mintersect

import (
	"context"
	"errors"
	"math/rand"
	"sync/atomic"
	"testing"

	"repro/internal/bitmatrix"
	"repro/internal/graph"
	"repro/internal/pattern"
	"repro/internal/vexpand"
)

// cancelInput builds a dense triangle-join input sized for cancellation
// tests: big enough that the Generic Join runs for many extend calls.
func cancelInput(t testing.TB, n, kmax int) func() *Input {
	t.Helper()
	rng := rand.New(rand.NewSource(3))
	b := graph.NewBuilder(n)
	for i := 0; i < 6*n; i++ {
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
	d := pattern.Determiner{KMin: 1, KMax: kmax, Dir: graph.Both, Type: pattern.Any, EdgeLabels: []string{"knows"}}
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
	return func() *Input {
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
}

// TestRunContextPreCanceled pins that a canceled context fails the join
// before any seed extends, in both serial and partitioned execution and on
// the streaming path.
func TestRunContextPreCanceled(t *testing.T) {
	mk := cancelInput(t, 420, 2)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		if _, err := RunContext(ctx, mk(), Options{Workers: workers}); !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: RunContext on canceled context = %v, want context.Canceled", workers, err)
		}
	}
	err := ForEachContext(ctx, mk(), Options{}, func([]graph.VertexID) {
		t.Fatal("canceled join delivered a tuple")
	}, &Result{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("ForEachContext on canceled context = %v, want context.Canceled", err)
	}
}

// pollCtx is a context whose Err turns on at its switchAt-th call, with no
// timer: a cancellation that lands at a point the join's own counter
// decides, not the scheduler. It counts the calls made after the switch.
type pollCtx struct {
	context.Context
	switchAt int64
	polls    atomic.Int64
	late     atomic.Int64
}

func (c *pollCtx) Err() error {
	if c.polls.Add(1) >= c.switchAt {
		c.late.Add(1)
		return context.Canceled
	}
	return nil
}

// TestRunContextCancelsMidIntersect cancels a long join halfway through its
// polls and bounds the work done after the cancel in the join's own units:
// every worker polls once per cancelCheckMask+1 seeds and extension calls
// and stops at the first poll that sees the cancel, so no more than one
// poll per worker may come after the switch. Run under -race this also
// proves the cancellation path is race-free across partition workers.
func TestRunContextCancelsMidIntersect(t *testing.T) {
	mk := cancelInput(t, 3600, 3)
	for _, workers := range []int{1, 4} {
		count := &pollCtx{Context: context.Background(), switchAt: 1 << 62}
		if _, err := RunContext(count, mk(), Options{CountOnly: true, Workers: workers}); err != nil {
			t.Fatal(err)
		}
		total := count.polls.Load()
		if total < 16 {
			t.Fatalf("workers=%d: full join polled only %d times; too short to cancel mid-run", workers, total)
		}
		ctx := &pollCtx{Context: context.Background(), switchAt: total / 2}
		_, err := RunContext(ctx, mk(), Options{CountOnly: true, Workers: workers})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: mid-join cancel = %v, want context.Canceled", workers, err)
		}
		if late := ctx.late.Load(); late > int64(workers) {
			t.Fatalf("workers=%d: %d polls after the cancel; each worker must stop at its first (at most %d units later)",
				workers, late, cancelCheckMask+1)
		}
	}
}

// A streaming two-vertex join draws seeds and delivered tuples from one poll
// budget: after the context is canceled (here from inside the k-th
// delivery) it may spend at most cancelCheckMask+1 further units before it
// stops, whether those units are tuples or seeds whose columns are empty.
func TestStreamingTwoVertexCancelBound(t *testing.T) {
	const numSeeds, k = 6000, 5
	seeds := make([]graph.VertexID, numSeeds)
	for i := range seeds {
		seeds[i] = graph.VertexID(i)
	}
	rows := []graph.VertexID{numSeeds, numSeeds + 1}
	for _, tc := range []struct {
		name       string
		seedsAlive int // leading seeds whose column holds both rows; the rest are empty
	}{{"every seed delivers", numSeeds}, {"empty seeds after the cancel", k}} {
		m := bitmatrix.New(len(rows), numSeeds+2)
		for s := 0; s < tc.seedsAlive; s++ {
			m.Set(0, s)
			m.Set(1, s)
		}
		in := &Input{
			NumPatternVertices: 2,
			FirstCols:          seeds,
			First:              &EdgeMatrix{EarlierPos: 0, M: m},
			RowCandidates:      [][]graph.VertexID{nil, rows},
			Ext:                [][]*EdgeMatrix{nil, nil},
		}
		ctx, cancel := context.WithCancel(context.Background())
		delivered, after := 0, 0
		seedsAfter := map[graph.VertexID]bool{}
		err := ForEachContext(ctx, in, Options{}, func(tuple []graph.VertexID) {
			delivered++
			if delivered == k {
				cancel()
			} else if delivered > k {
				after++
				seedsAfter[tuple[0]] = true
			}
		}, &Result{})
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: join returned %v after %d tuples, want context.Canceled", tc.name, err, delivered)
		}
		if spent := after + len(seedsAfter); spent > cancelCheckMask+1 {
			t.Fatalf("%s: %d tuples over %d seeds after the cancel, budget is %d units",
				tc.name, after, len(seedsAfter), cancelCheckMask+1)
		}
	}
}
