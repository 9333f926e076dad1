package main

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/client"
	"repro/internal/telemetry"
)

// numClients is the closed-loop client count: nproc on the reference box.
// It is fixed so results from different hosts describe the same load.
const numClients = 2

// warmUp precedes every timed window; its samples are discarded, its
// answers still feed the repeated-params check (so a cache-hit reply is
// compared with the miss that filled the cache). One second fills the
// cache of the one workload whose working set fits (8 expansions of ~85 ms
// over two clients).
const warmUp = time.Second

// answer is what a client observed for one query: the row count and an
// order-independent digest of the rows.
type answer struct {
	rows   int64
	digest uint64
}

// mix is splitmix64's finalizer: row digests are summed, so each value must
// be scrambled first or permuted columns would collide.
func mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// runQuery drives one query through the driver to its last row: Run, then
// Next until ErrDone. Every workload returns int64 columns only.
func runQuery(c *client.Conn, w *workload, lo, span int64) (answer, error) {
	var a answer
	rows, err := c.Run(w.Query, w.params(lo, span))
	if err != nil {
		return a, err
	}
	for {
		row, err := rows.Next()
		if errors.Is(err, client.ErrDone) {
			return a, nil
		}
		if err != nil {
			return a, err
		}
		var h uint64
		for _, v := range row {
			id, ok := v.(int64)
			if !ok {
				return a, fmt.Errorf("row value %v (%T) is not an int64", v, v)
			}
			h = mix(h + uint64(id))
		}
		a.rows++
		a.digest += h
	}
}

// answerBook remembers the first answer seen per parameter value, so that
// repeated params must repeat their answer. Shared by all clients of a run.
type answerBook struct {
	mu   sync.Mutex
	seen map[int64]answer
}

// check reports whether lo had been answered before and whether a agrees
// with that first answer.
func (b *answerBook) check(lo int64, a answer) (repeated, same bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	first, ok := b.seen[lo]
	if !ok {
		b.seen[lo] = a
		return false, true
	}
	return true, first == a
}

// sample is one query that completed inside the timed window.
type sample struct {
	endMs     float64 // completion, from the start of the window
	latencyMs float64 // Run to last row, as the client saw it
	rows      int64
}

// loadResult is one timed window.
type loadResult struct {
	Seconds   float64
	Latencies []float64 // ms, one per query completed inside the window
	QPS       float64   // queries per second, all clients together
	RowsPerS  float64   // result rows per second, all clients together
	Attempted int       // queries issued over warm-up and window together
	Failed    int       // errors, malformed replies and answer mismatches
	Repeated  int       // attempts whose params had been answered before
	FirstErr  string

	// Cache counters are deltas over the window (entries and bytes: the
	// state at its end).
	CacheHits      int64
	CacheEvictions int64
	CacheEntries   int
	CacheBytes     int64
}

// clientLoop is one closed-loop client's share of a loadResult.
type clientLoop struct {
	samples                     []sample
	attempted, failed, repeated int
	firstErr                    error
}

// run issues queries until end; a sample counts when it completed inside
// (warmEnd, end].
func (cl *clientLoop) run(c *client.Conn, w *workload, gen *paramGen, book *answerBook, warmEnd, end time.Time) {
	for {
		t0 := time.Now()
		if !t0.Before(end) {
			return
		}
		lo := gen.next()
		a, err := runQuery(c, w, lo, w.Span)
		t1 := time.Now()
		cl.attempted++
		if err == nil && !w.validReply(a) {
			err = fmt.Errorf("lo=%d: malformed reply (%d rows, digest %x)", lo, a.rows, a.digest)
		}
		if err == nil {
			repeated, same := book.check(lo, a)
			if repeated {
				cl.repeated++
			}
			if !same {
				err = fmt.Errorf("lo=%d: reply (%d rows, digest %x) differs from the first reply for the same params", lo, a.rows, a.digest)
			}
		}
		if err != nil {
			cl.failed++
			if cl.firstErr == nil {
				cl.firstErr = err
			}
			var serr *client.ServerError
			if !errors.As(err, &serr) && c.Ping() != nil {
				return // transport is dead: every further attempt would fail instantly
			}
			continue
		}
		if t1.After(warmEnd) && !t1.After(end) {
			cl.samples = append(cl.samples, sample{endMs: ms(t1.Sub(warmEnd)), latencyMs: ms(t1.Sub(t0)), rows: a.rows})
		}
	}
}

// rates is the client's completion rate, taken between its first and its
// last completion inside the window: k-1 queries (and the rows of all but
// the first) over t_k - t_1. Dividing the count by the window instead would
// jump by a whole query whenever a completion falls just inside or outside
// an edge — 3% per client on a 3 s window of 100 ms queries.
func (cl *clientLoop) rates(window time.Duration) (qps, rowsPerS float64) {
	k := len(cl.samples)
	if k == 0 {
		return 0, 0
	}
	if k == 1 { // no interval to take: fall back to the window
		return 1 / window.Seconds(), float64(cl.samples[0].rows) / window.Seconds()
	}
	var rows int64
	for _, s := range cl.samples[1:] {
		rows += s.rows
	}
	span := (cl.samples[k-1].endMs - cl.samples[0].endMs) / 1000
	return float64(k-1) / span, float64(rows) / span
}

// runLoad drives st with numClients closed-loop clients — one connection
// each, the next query only after the last row of the previous one — for
// warm plus window, and keeps the samples that completed inside the window.
// Client i draws the parameter stream of (seed, firstClient+i), so the
// segments of one run see different queries.
func runLoad(st *stack, w *workload, seed int64, firstClient int, warm, window time.Duration) (*loadResult, error) {
	conns := make([]*client.Conn, numClients)
	for i := range conns {
		c, err := st.dial()
		if err != nil {
			for _, open := range conns[:i] {
				_ = open.Close() // the dial error is the one to report
			}
			return nil, err
		}
		conns[i] = c
	}

	book := &answerBook{seen: map[int64]answer{}}
	warmEnd := time.Now().Add(warm)
	end := warmEnd.Add(window)
	loops := make([]clientLoop, numClients)
	var wg sync.WaitGroup
	for i := range conns {
		wg.Add(1)
		go func(i int) { //vs:nolint(ctx-propagation) every client stops itself at end, and runLoad waits for all of them
			defer wg.Done()
			loops[i].run(conns[i], w, newParamGen(w, st.g.NumVertices(), seed, firstClient+i), book, warmEnd, end)
		}(i)
	}
	time.Sleep(time.Until(warmEnd))
	hits0 := telemetry.MatrixCacheHits.Value()
	evict0 := telemetry.MatrixCacheEvictions.Value()
	wg.Wait()

	res := &loadResult{
		Seconds:        window.Seconds(),
		CacheHits:      telemetry.MatrixCacheHits.Value() - hits0,
		CacheEvictions: telemetry.MatrixCacheEvictions.Value() - evict0,
	}
	res.CacheEntries, res.CacheBytes = st.eng.CacheStats()
	var firstErr error
	for i := range loops {
		cl := &loops[i]
		qps, rowsPerS := cl.rates(window)
		res.QPS += qps
		res.RowsPerS += rowsPerS
		for _, s := range cl.samples {
			res.Latencies = append(res.Latencies, s.latencyMs)
		}
		res.Attempted += cl.attempted
		res.Failed += cl.failed
		res.Repeated += cl.repeated
		if firstErr == nil {
			firstErr = cl.firstErr
		}
		if err := conns[i].Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if firstErr != nil {
		res.FirstErr = firstErr.Error()
	}
	return res, nil
}

// validReply is the per-reply shape check: count queries answer with
// exactly one row holding a non-zero count (every workload's ranges are
// sized so an empty answer would be a bug); row queries may legitimately be
// empty only for a single source.
func (w *workload) validReply(a answer) bool {
	switch {
	case w.Count:
		return a.rows == 1 && a.digest != mix(0)
	case w.Span == 0:
		return true
	default:
		return a.rows > 0
	}
}
