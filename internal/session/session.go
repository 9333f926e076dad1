// Package session is the transport-agnostic query service between
// vsserve's front ends and the engine. Both transports — the HTTP/JSON
// handlers in internal/server and the framed binary protocol in
// internal/wire — speak to this one API; neither calls the cypher
// execution entry points directly.
//
// The model is Bolt-shaped, with one query per session: a Session is one
// client's conversation (the HTTP transport opens one per streamed request,
// the wire transport one per connection), Session.Run starts a query and
// returns a Cursor, and the client drives the result with Fetch(n) /
// Discard; a second Run discards the previous cursor. There is one kind of
// cursor: a producer goroutine runs every query through cypher.Stream and
// hands Fetch one batch of FetchBatch rows at a time, blocking the query
// itself when the client fetches slower than it produces. Run fails only on
// what it sees before executing (a closed session, EXPLAIN or PROFILE, a
// cursor buffer over the budget); every execution error arrives on the
// first Fetch, whatever the query's shape. Service.Execute runs the same
// pipeline to completion for request/response callers.
//
// The engine's Accountant is the one record of result bytes. A cursor
// reserves one batch of rows for its lifetime, released on exhaustion,
// discard, the next Run, client disconnect or session close. The rows a
// query holds before it can emit (aggregate groups, ORDER BY rows, a
// length() query's tuples) are charged inside cypher as they grow, so a
// result over the budget fails while it grows. Cursor.Streaming reports
// the queries that hold nothing (cypher.Streamable). Queries register with
// telemetry.DefaultQueries inside the cypher layer, so SHOW QUERIES and
// /debug/queries see them with live row counts and can KILL them.
package session

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/cypher"
	"repro/internal/engine"
)

// DefaultFetchBatch is the default cursor handoff and FETCH batch size:
// 256 rows keeps a streamed result's server-side footprint in the tens of
// kilobytes while amortizing per-batch transport overhead.
const DefaultFetchBatch = 256

// Options configures a Service.
type Options struct {
	// QueryTimeout, when > 0, bounds every query's execution — for a
	// streamed query the deadline covers the whole stream lifetime,
	// producer and fetch phases included.
	QueryTimeout time.Duration
	// FetchBatch is the rows per producer-to-Fetch handoff of a streamed
	// cursor and the batch size Fetch uses when the caller passes max <= 0.
	// 0 = DefaultFetchBatch.
	FetchBatch int
}

// Service executes queries against one engine on behalf of any transport.
type Service struct {
	eng  *engine.Engine
	opts Options

	lastID atomic.Uint64 // the most recent session id
	open   atomic.Int64  // sessions opened and not yet closed
}

// NewService returns a service over eng.
func NewService(eng *engine.Engine, opts Options) *Service {
	if opts.FetchBatch <= 0 {
		opts.FetchBatch = DefaultFetchBatch
	}
	return &Service{eng: eng, opts: opts}
}

// Engine returns the service's engine (transports need it for /stats).
func (s *Service) Engine() *engine.Engine { return s.eng }

// FetchBatch returns the configured cursor batch size.
func (s *Service) FetchBatch() int { return s.opts.FetchBatch }

// SessionCount reports the open sessions (introspection and tests).
func (s *Service) SessionCount() int { return int(s.open.Load()) }

// queryContext derives the execution context: cancelable, with the
// service-wide query deadline applied when configured.
func (s *Service) queryContext(ctx context.Context) (context.Context, context.CancelFunc) {
	if s.opts.QueryTimeout > 0 {
		return context.WithTimeout(ctx, s.opts.QueryTimeout)
	}
	return context.WithCancel(ctx)
}

// Execute runs a parsed query to completion and returns the result in
// memory — the classic request/response path. The query registers with the
// telemetry registry, honors the service's QueryTimeout, and fails with the
// budget error when the rows it holds while running outgrow the budget.
func (s *Service) Execute(ctx context.Context, q *cypher.Query, params map[string]any) (*cypher.Result, error) {
	ctx, cancel := s.queryContext(ctx)
	defer cancel()
	return cypher.RunContext(ctx, s.eng, q, params)
}

// OpenSession starts a session for one client (a wire connection, one
// streamed HTTP request). The caller must Close it — Close discards the
// open cursor and releases its memory reservation.
func (s *Service) OpenSession(client string) *Session {
	s.open.Add(1)
	return &Session{id: s.lastID.Add(1), svc: s, client: client}
}

// Session is one client's conversation with the service. It runs one query
// at a time and belongs to its transport's goroutine; the Cursor it returns
// may be fetched or discarded while its producer runs.
type Session struct {
	id     uint64
	svc    *Service
	client string
	cur    *Cursor // the last Run's cursor; nil before the first
	closed bool
}

// ID returns the service-assigned session id.
func (s *Session) ID() uint64 { return s.id }

// Client returns the client tag given at open (remote address, typically).
func (s *Session) Client() string { return s.client }

// Run parses and starts a query, returning the cursor over its result.
func (s *Session) Run(ctx context.Context, query string, params map[string]any) (*Cursor, error) {
	q, err := cypher.Parse(query)
	if err != nil {
		return nil, err
	}
	return s.RunParsed(ctx, q, params)
}

// RunParsed starts an already-parsed query on a new cursor, first
// discarding the previous one if it is still open, and returns without
// executing: execution errors surface on the first Fetch, like a Bolt
// RUN/PULL split. The cursor reserves one batch of row bytes (plus one row)
// for its lifetime. EXPLAIN and PROFILE are refused: a cursor carries rows,
// not the plan, analysis or span tree they answer with.
func (s *Session) RunParsed(ctx context.Context, q *cypher.Query, params map[string]any) (*Cursor, error) {
	if s.closed {
		return nil, fmt.Errorf("session: session %d is closed", s.id)
	}
	if s.cur != nil {
		s.cur.Discard()
	}
	if q.Explain || q.Profile {
		return nil, errors.New("session: EXPLAIN, EXPLAIN ANALYZE and PROFILE cannot run on a cursor: they return a plan, an analysis or a span tree, not rows")
	}
	cols := cypher.Columns(q)
	reserve := cypher.RowBytes(len(cols)) * int64(s.svc.opts.FetchBatch+1)
	if err := s.svc.eng.Accountant().Reserve(reserve); err != nil {
		return nil, fmt.Errorf("session: cursor buffer: %w", err)
	}
	cctx, cancel := s.svc.queryContext(ctx)
	s.cur = &Cursor{
		svc:       s.svc,
		cols:      cols,
		streaming: cypher.Streamable(q),
		ch:        make(chan [][]any),
		cancel:    cancel,
		reserved:  reserve,
	}
	go s.cur.produce(cctx, s.svc.eng, q, params)
	return s.cur, nil
}

// Close discards the open cursor (canceling its producer and releasing its
// memory reservation) and drops it from the service's open count.
// Idempotent.
func (s *Session) Close() {
	if s.closed {
		return
	}
	s.closed = true
	if s.cur != nil {
		s.cur.Discard()
	}
	s.svc.open.Add(-1)
}
