package session

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"

	"repro/internal/cypher"
	"repro/internal/engine"
)

// ErrCursorClosed is returned by Fetch on a discarded or exhausted cursor.
var ErrCursorClosed = errors.New("session: cursor is closed")

// Cursor is one query's result, consumed in client-driven batches. A
// producer goroutine runs the query through cypher.Stream and hands its rows
// over one batch at a time. Fetch and Discard are safe to call from the
// transport's goroutine while the producer runs; a cursor is
// single-consumer.
type Cursor struct {
	svc       *Service
	cols      []string
	streaming bool // see Streaming

	// The producer sends full batches of FetchBatch rows on the unbuffered
	// ch and closes it after recording the last, shorter batch and perr
	// (ordering: last and perr, then close). left is the consumer's part of
	// the last batch received that no Fetch has returned yet.
	ch     chan [][]any
	cancel context.CancelFunc
	last   [][]any
	perr   error
	left   [][]any

	reserved int64
	release  sync.Once
	closed   atomic.Bool // discarded or exhausted
}

// Columns returns the result's column names, known before the first row.
func (c *Cursor) Columns() []string { return c.cols }

// Streaming reports whether the server holds result memory constant in the
// result size (cypher.Streamable): false when the query's groups, ORDER BY
// rows or length() tuples are held until its match ends.
func (c *Cursor) Streaming() bool { return c.streaming }

// produce runs the query, collecting rows into batches of FetchBatch and
// handing each full batch to Fetch. The handoff blocks until a Fetch takes
// the batch — that backpressure holds the engine's join at one batch ahead
// of the client. A canceled context (Discard, client disconnect, KILL,
// QueryTimeout) unblocks the handoff and unwinds the engine at its
// cooperative poll points.
func (c *Cursor) produce(ctx context.Context, eng *engine.Engine, q *cypher.Query, params map[string]any) {
	size := c.svc.opts.FetchBatch
	var batch [][]any // grows by append until the first handoff: most results are short
	// The emit callback hands off on the query context Stream provides (a
	// child of ctx that KILL also cancels), not ctx itself — a kill must
	// unblock a producer waiting on a batch no one is fetching.
	err := cypher.Stream(ctx, eng, q, params, func(qctx context.Context, row []any) error {
		batch = append(batch, row)
		if len(batch) < size {
			return nil
		}
		if err := c.handoff(qctx, batch); err != nil {
			return err
		}
		batch = make([][]any, 0, size)
		return nil
	})
	// The last, partial batch is published by the close rather than handed
	// off, so the producer never waits at the end and a one-batch result
	// costs Fetch a single receive.
	if err == nil {
		c.last = batch
	}
	c.perr = err
	close(c.ch)
}

// handoff passes one batch to Fetch, or gives up when ctx ends.
func (c *Cursor) handoff(ctx context.Context, batch [][]any) error {
	// Check before the select: when a Fetch is waiting AND the query was
	// killed, both cases are ready and select would pick at random — a dead
	// query must stop handing off rows immediately, not probabilistically.
	if err := ctx.Err(); err != nil {
		return err
	}
	select {
	case c.ch <- batch:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Fetch returns up to max rows (max <= 0 = the service's FetchBatch),
// blocking until that many rows arrive or the stream ends. more=false means
// the result is complete — the cursor closed itself and released its
// memory reservation; err carries the producer's failure (an execution
// error, a budget overrun, a KILL's context.Canceled) when the stream ended
// abnormally. Every execution error surfaces here, never at Run.
func (c *Cursor) Fetch(max int) (rows [][]any, more bool, err error) {
	if max <= 0 {
		max = c.svc.opts.FetchBatch
	}
	if c.closed.Load() {
		return nil, false, ErrCursorClosed
	}

	for len(rows) < max {
		if len(c.left) == 0 {
			batch, ok := <-c.ch
			if !ok && len(c.last) > 0 {
				batch, ok, c.last = c.last, true, nil
			}
			if !ok {
				// Producer finished: last and perr were written before the close.
				err = c.perr
				c.closed.Store(true)
				c.close()
				return rows, false, err
			}
			c.left = batch
		}
		n := min(max-len(rows), len(c.left))
		if rows == nil && n == len(c.left) {
			rows = c.left // the common case, max = FetchBatch: pass the batch on whole
		} else {
			rows = append(rows, c.left[:n]...)
		}
		c.left = c.left[n:]
	}
	return rows, true, nil
}

// Discard abandons the result: the producer is canceled (the engine
// unwinds cooperatively) and the memory reservation is released. Fetch
// afterwards returns ErrCursorClosed. Idempotent.
func (c *Cursor) Discard() {
	c.closed.Store(true)
	c.close()
}

// close cancels the producer and releases the reservation exactly once
// across the exhaustion, discard, next-Run and session-close paths.
func (c *Cursor) close() {
	c.release.Do(func() {
		c.cancel()
		c.svc.eng.Accountant().Release(c.reserved)
	})
}
