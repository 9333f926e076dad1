// Package client is the Go driver for vsserve's framed binary wire
// protocol. A Conn is one connection (one server-side session); Run starts
// a query and returns a Rows the caller iterates with Next — the driver
// fetches the server's batches behind the scenes, so iterating a
// billion-row result holds one batch in client memory and one batch in
// server memory at a time. A Conn runs one query at a time and is not safe
// for concurrent use; open one per goroutine.
//
//	c, err := client.Dial("localhost:7688", client.Options{})
//	defer c.Close()
//	rows, err := c.Run("MATCH (a:Person)-[:knows]->(b) RETURN a, b", nil)
//	for {
//		row, err := rows.Next()
//		if err == client.ErrDone { break }
//		...
//	}
package client

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"time"

	"repro/internal/wire"
)

// ErrDone is returned by Rows.Next after the last row of a successful
// result.
var ErrDone = errors.New("client: no more rows")

// ServerError is a FAILURE from the server, preserving the protocol code
// (syntax_error, query_error, protocol_error).
type ServerError struct {
	Code    string
	Message string
}

func (e *ServerError) Error() string { return fmt.Sprintf("%s: %s", e.Code, e.Message) }

// Options configures a Conn.
type Options struct {
	// DialTimeout bounds connection establishment; 0 = no limit.
	DialTimeout time.Duration
	// Client is the client name sent in HELLO (shown in server logs).
	Client string
}

// ServerInfo is the server's HELLO response.
type ServerInfo struct {
	Server     string
	Version    int64
	FetchBatch int64
}

// Conn is one wire-protocol connection. Exactly one Rows may be open at a
// time; Run while a Rows is open closes it (the server discards its cursor
// when the next RUN arrives).
type Conn struct {
	conn   net.Conn
	r      *bufio.Reader // every read, the handshake reply included
	opts   Options
	info   ServerInfo
	rows   *Rows // open result, if any
	in     []byte
	out    []byte
	err    error // sticky transport error; the conn is dead once set
	closed bool  // Close already ran; further Closes are no-ops
}

// Dial connects, handshakes, and exchanges HELLO.
func Dial(addr string, opts Options) (*Conn, error) {
	conn, err := net.DialTimeout("tcp", addr, opts.DialTimeout)
	if err != nil {
		return nil, err
	}
	c := &Conn{conn: conn, r: bufio.NewReader(conn), opts: opts}
	if err := c.handshake(); err != nil {
		_ = conn.Close()
		return nil, err
	}
	if err := c.hello(); err != nil {
		_ = conn.Close()
		return nil, err
	}
	return c, nil
}

// Server returns the HELLO metadata.
func (c *Conn) Server() ServerInfo { return c.info }

func (c *Conn) handshake() error {
	var hs [8]byte
	copy(hs[:4], wire.Magic)
	hs[4] = byte(wire.Version >> 24)
	hs[5] = byte(wire.Version >> 16)
	hs[6] = byte(wire.Version >> 8)
	hs[7] = byte(wire.Version)
	if _, err := c.conn.Write(hs[:]); err != nil {
		return fmt.Errorf("client: handshake write: %w", err)
	}
	var accept [4]byte
	if _, err := io.ReadFull(c.r, accept[:]); err != nil {
		return fmt.Errorf("client: handshake read: %w", err)
	}
	got := uint32(accept[0])<<24 | uint32(accept[1])<<16 | uint32(accept[2])<<8 | uint32(accept[3])
	if got != wire.Version {
		return fmt.Errorf("client: server rejected protocol version %d (answered %d)", wire.Version, got)
	}
	return nil
}

func (c *Conn) hello() error {
	name := c.opts.Client
	if name == "" {
		name = "vsclient"
	}
	meta, err := c.request(wire.MsgHello, map[string]any{"client": name})
	if err != nil {
		return err
	}
	c.info.Server, _ = wire.BodyString(meta, "server")
	c.info.Version, _ = wire.BodyInt(meta, "version")
	c.info.FetchBatch, _ = wire.BodyInt(meta, "fetch_batch")
	return nil
}

// Run starts a query. Param values may be int64, int, bool, float64,
// string, []int64, or []any of those. The returned Rows is valid until the
// next Run or Close. Run fails on a syntax error or a query the server
// cannot run on a cursor (EXPLAIN, PROFILE); execution errors, whatever the
// query's shape, arrive from the first Rows.Next.
func (c *Conn) Run(query string, params map[string]any) (*Rows, error) {
	if c.rows != nil {
		c.rows.closed = true
	}
	body := map[string]any{"query": query}
	if len(params) > 0 {
		body["params"] = params
	}
	meta, err := c.request(wire.MsgRun, body)
	if err != nil {
		return nil, err
	}
	streaming, _ := meta["streaming"].(bool)
	var cols []string
	if raw, ok := meta["columns"].([]any); ok {
		cols = make([]string, 0, len(raw))
		for _, v := range raw {
			s, _ := v.(string)
			cols = append(cols, s)
		}
	}
	c.rows = &Rows{conn: c, cols: cols, streaming: streaming, more: true}
	return c.rows, nil
}

// Ping round-trips a liveness probe.
func (c *Conn) Ping() error {
	if c.err != nil {
		return c.err
	}
	if err := c.sendMessage(wire.MsgPing, nil); err != nil {
		return err
	}
	msg, _, err := c.readMessage()
	if err != nil {
		return err
	}
	if msg != wire.MsgPong {
		return c.fail(fmt.Errorf("client: expected PONG, got 0x%02X", msg))
	}
	return nil
}

// Close sends GOODBYE and closes the connection. It is idempotent: the
// first call tears the connection down, later calls return nil — so
// `defer c.Close()` composes with an explicit error-path Close.
func (c *Conn) Close() error {
	if c.closed {
		return nil
	}
	c.closed = true
	if c.rows != nil && !c.rows.closed {
		_ = c.rows.Close() // best effort; the server reaps on disconnect anyway
	}
	if c.err == nil {
		_ = c.sendMessage(wire.MsgGoodbye, nil) // GOODBYE is a courtesy; the close below is the real teardown
	}
	return c.conn.Close()
}

// request sends one message and reads its SUCCESS metadata, translating a
// FAILURE into *ServerError.
func (c *Conn) request(msg byte, body map[string]any) (map[string]any, error) {
	if c.err != nil {
		return nil, c.err
	}
	if err := c.sendMessage(msg, body); err != nil {
		return nil, err
	}
	return c.readSuccess()
}

func (c *Conn) readSuccess() (map[string]any, error) {
	msg, meta, err := c.readMessage()
	if err != nil {
		return nil, err
	}
	switch msg {
	case wire.MsgSuccess:
		return meta, nil
	case wire.MsgFailure:
		return nil, failureError(meta)
	default:
		return nil, c.fail(fmt.Errorf("client: expected SUCCESS, got 0x%02X", msg))
	}
}

// sendMessage writes one request. A request is a single frame, and the
// length prefix is reserved in the encode buffer, so it leaves in one Write.
func (c *Conn) sendMessage(msg byte, body map[string]any) error {
	enc, err := wire.AppendMessage(wire.BeginFrame(c.out[:0]), msg, body)
	if err != nil {
		return err
	}
	c.out = enc
	if err := wire.WriteFrame(c.conn, c.out); err != nil {
		return c.fail(err)
	}
	return nil
}

func (c *Conn) readMessage() (byte, map[string]any, error) {
	frame, err := wire.ReadFrame(c.r, c.in)
	if err != nil {
		return 0, nil, c.fail(err)
	}
	c.in = frame
	msg, body, err := wire.ParseMessage(frame)
	if err != nil {
		return 0, nil, c.fail(err)
	}
	return msg, body, nil
}

// fail marks the connection dead; protocol state is unrecoverable after a
// transport or framing error.
func (c *Conn) fail(err error) error {
	if c.err == nil {
		c.err = err
	}
	return err
}

func failureError(meta map[string]any) error {
	code, _ := wire.BodyString(meta, "code")
	message, _ := wire.BodyString(meta, "message")
	return &ServerError{Code: code, Message: message}
}

// Rows iterates one query's result. Next returns rows in stream order;
// ErrDone ends a successful result, any other error is terminal (server
// failures arrive after the rows that preceded them, so the prefix already
// delivered is valid).
type Rows struct {
	conn      *Conn
	cols      []string
	streaming bool

	buf    [][]any
	pos    int
	more   bool
	closed bool
	err    error
}

// Columns returns the result's column names.
func (r *Rows) Columns() []string { return r.cols }

// Streaming reports whether the server produces this result in memory
// constant in its size; false when the query holds rows (aggregate groups,
// ORDER BY) until its match ends. Every result arrives batch by batch.
func (r *Rows) Streaming() bool { return r.streaming }

// Next returns the next row, fetching a batch from the server when the
// local buffer drains. Returns ErrDone after the last row.
func (r *Rows) Next() ([]any, error) {
	for r.pos >= len(r.buf) {
		if r.err != nil {
			return nil, r.err
		}
		if r.closed || !r.more {
			return nil, ErrDone
		}
		if err := r.fetch(); err != nil {
			r.err = err
			return nil, err
		}
	}
	row := r.buf[r.pos]
	r.pos++
	return row, nil
}

// fetch pulls one batch: RECORD frames, then SUCCESS{has_more} or FAILURE.
func (r *Rows) fetch() error {
	c := r.conn
	if err := c.sendMessage(wire.MsgFetch, nil); err != nil {
		return err
	}
	r.buf = r.buf[:0]
	r.pos = 0
	for {
		frame, err := wire.ReadFrame(c.r, c.in)
		if err != nil {
			return c.fail(err)
		}
		c.in = frame
		if len(frame) == 0 {
			return c.fail(fmt.Errorf("client: empty frame"))
		}
		switch frame[0] {
		case wire.MsgRecord:
			row, err := wire.ReadRecord(frame[1:])
			if err != nil {
				return c.fail(err)
			}
			r.buf = append(r.buf, row)
		case wire.MsgSuccess:
			_, meta, err := wire.ParseMessage(frame)
			if err != nil {
				return c.fail(err)
			}
			r.more, _ = meta["has_more"].(bool)
			if !r.more {
				r.closed = true // server closed the cursor at exhaustion
			}
			return nil
		case wire.MsgFailure:
			_, meta, err := wire.ParseMessage(frame)
			if err != nil {
				return c.fail(err)
			}
			r.closed = true
			return failureError(meta)
		default:
			return c.fail(fmt.Errorf("client: unexpected message 0x%02X during fetch", frame[0]))
		}
	}
}

// Close discards the server-side cursor (releasing its buffer memory)
// unless the result already completed. Safe to call multiple times.
func (r *Rows) Close() error {
	if r.closed {
		return nil
	}
	r.closed = true
	_, err := r.conn.request(wire.MsgDiscard, nil)
	return err
}
