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
// streaming cursor is fed by a producer goroutine running cypher.Stream
// into a bounded buffer; a materialized cursor pages through rows already
// in memory. Fetch and Discard are safe to call from the transport's
// goroutine while the producer runs; a cursor is single-consumer.
type Cursor struct {
	svc  *Service
	cols []string

	// Streaming state: producer sends rows on ch and closes it after
	// recording perr (ordering: perr, then close).
	streaming bool
	ch        chan []any
	cancel    context.CancelFunc
	perr      error

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

// produce runs the streaming query, feeding the bounded buffer. Emit
// blocks when the buffer is full — that backpressure holds the engine's
// join at one batch ahead of the client. A canceled context (Discard,
// client disconnect, KILL, QueryTimeout) unblocks the send and unwinds the
// engine at its cooperative poll points.
func (c *Cursor) produce(ctx context.Context, eng *engine.Engine, q *cypher.Query, params map[string]any) {
	// The emit callback selects on the query context Stream provides (a
	// child of ctx that KILL also cancels), not ctx itself — a kill must
	// unblock a producer waiting on a full buffer no one is fetching.
	err := cypher.Stream(ctx, eng, q, params, func(qctx context.Context, row []any) error {
		// Check before the select: when the buffer has room AND the query
		// was killed, both cases are ready and select would pick at random —
		// a dead query must stop emitting immediately, not probabilistically.
		if qctx.Err() != nil {
			return qctx.Err()
		}
		select {
		case c.ch <- row:
			return nil
		case <-qctx.Done():
			return qctx.Err()
		}
	})
	c.perr = err
	close(c.ch)
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
		row, ok := <-c.ch
		if !ok {
			// Producer finished: perr was written before the close.
			err = c.perr
			c.mu.Lock()
			c.exhausted = true
			c.mu.Unlock()
			c.close()
			return rows, false, err
		}
		rows = append(rows, row)
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
