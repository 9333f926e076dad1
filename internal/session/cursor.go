package session

import (
	"context"
	"errors"
	"sync"

	"repro/internal/cypher"
	"repro/internal/engine"
)

// ErrCursorClosed is returned by Fetch on a discarded or exhausted cursor.
var ErrCursorClosed = errors.New("session: cursor is closed")

// Cursor is one query's result, consumed in client-driven batches. A
// streaming cursor is fed by a producer goroutine running cypher.Stream,
// which hands its rows over one batch at a time; a materialized cursor
// pages through rows already in memory. Fetch and Discard are safe to call
// from the transport's goroutine while the producer runs; a cursor is
// single-consumer.
type Cursor struct {
	svc  *Service
	cols []string

	// Streaming state: the producer sends batches of FetchBatch rows (the
	// last may be shorter) on the unbuffered ch and closes it after
	// recording perr (ordering: perr, then close). left is the consumer's
	// part of the last batch received that no Fetch has returned yet.
	streaming bool
	ch        chan [][]any
	cancel    context.CancelFunc
	perr      error
	left      [][]any

	// Materialized state.
	rows [][]any

	reserved int64
	release  sync.Once

	mu        sync.Mutex
	pos       int
	discarded bool
	exhausted bool
}

// Columns returns the result's column names, known before the first row.
func (c *Cursor) Columns() []string { return c.cols }

// Streaming reports whether the cursor streams (constant server memory) or
// serves a materialized result.
func (c *Cursor) Streaming() bool { return c.streaming }

// produce runs the streaming query, collecting rows into batches of
// FetchBatch and handing each full batch to Fetch. The handoff blocks until
// a Fetch takes the batch — that backpressure holds the engine's join at
// one batch ahead of the client. A canceled context (Discard, client
// disconnect, KILL, QueryTimeout) unblocks the handoff and unwinds the
// engine at its cooperative poll points.
func (c *Cursor) produce(ctx context.Context, eng *engine.Engine, q *cypher.Query, params map[string]any) {
	size := c.svc.opts.FetchBatch
	batch := make([][]any, 0, size)
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
	// Stream cancels its query context on return, so the last, partial
	// batch goes out on the cursor's own context.
	if err == nil && len(batch) > 0 {
		err = c.handoff(ctx, batch)
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
// blocking on a streaming cursor until that many rows arrive or the stream
// ends. more=false means the result is complete — the cursor closed itself
// and released its memory reservation; err carries the producer's failure
// (including a KILL's context.Canceled) when the stream ended abnormally.
func (c *Cursor) Fetch(max int) (rows [][]any, more bool, err error) {
	if max <= 0 {
		max = c.svc.opts.FetchBatch
	}
	c.mu.Lock()
	if c.discarded || c.exhausted {
		c.mu.Unlock()
		return nil, false, ErrCursorClosed
	}
	if !c.streaming {
		end := min(c.pos+max, len(c.rows))
		rows = c.rows[c.pos:end]
		c.pos = end
		more = c.pos < len(c.rows)
		if !more {
			c.exhausted = true
		}
		c.mu.Unlock()
		if !more {
			c.close()
		}
		return rows, more, nil
	}
	c.mu.Unlock()

	for len(rows) < max {
		if len(c.left) == 0 {
			batch, ok := <-c.ch
			if !ok {
				// Producer finished: perr was written before the close.
				err = c.perr
				c.mu.Lock()
				c.exhausted = true
				c.mu.Unlock()
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
// afterwards returns ErrCursorClosed.
// Idempotent.
func (c *Cursor) Discard() {
	c.mu.Lock()
	if c.discarded {
		c.mu.Unlock()
		return
	}
	c.discarded = true
	c.mu.Unlock()
	if c.cancel != nil {
		c.cancel()
	}
	c.close()
}

// close releases the reservation exactly once across the exhaustion,
// discard, next-Run and session-close paths.
func (c *Cursor) close() {
	c.release.Do(func() {
		if c.cancel != nil {
			c.cancel()
		}
		c.svc.eng.Accountant().Release(c.reserved)
	})
}
