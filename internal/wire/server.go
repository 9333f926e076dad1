// Package wire implements vsserve's framed binary streaming protocol — the
// transport for result sets too large (or too latency-sensitive) for the
// HTTP/JSON front end. The protocol is Bolt-shaped: a versioned handshake,
// then length-prefixed messages. A connection runs one query at a time: a
// RUN starts a query (discarding the previous one's cursor) and answers
// with the column shape, and the client drives the result with FETCH
// (answered by up to one batch of RECORD frames and a SUCCESS carrying
// has_more) or abandons it with DISCARD. Records use a compact value
// encoding where a row of graph ids costs a few bytes per vertex.
//
// Each connection reads through a bufio.Reader and writes through a
// fixed-size bufio.Writer that is flushed once per reply — after each
// SUCCESS, FAILURE or PONG — so a FETCH's RECORD frames coalesce into a few
// socket writes instead of one per row.
//
// The server holds no query logic: every connection is one
// session.Session, and all execution, backpressure and memory metering
// live in internal/session — shared with the HTTP transport.
package wire

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"sync"

	"repro/internal/cypher"
	"repro/internal/session"
)

// Options configures a Server.
type Options struct {
	// Logger, when non-nil, receives one record per connection open/close
	// and per protocol-level failure.
	Logger *slog.Logger
}

// Server accepts wire-protocol connections and serves them over a
// session.Service.
type Server struct {
	svc  *session.Service
	opts Options

	mu    sync.Mutex
	conns map[net.Conn]struct{}
}

// NewServer returns a wire server over svc.
func NewServer(svc *session.Service, opts Options) *Server {
	return &Server{svc: svc, opts: opts, conns: make(map[net.Conn]struct{})}
}

// Serve accepts connections on ln until the listener closes, handling each
// connection on its own goroutine.
func (s *Server) Serve(ln net.Listener) error {
	for {
		conn, err := ln.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		s.track(conn, true)
		go func() {
			defer s.track(conn, false)
			defer conn.Close() //vs:nolint(unchecked-err) read-side close of a dead conn on the way out
			s.handleConn(conn)
		}()
	}
}

// Close force-closes every live connection (their sessions close behind
// them, discarding their open cursors). The caller closes the listener.
func (s *Server) Close() {
	s.mu.Lock()
	for conn := range s.conns {
		_ = conn.Close()
	}
	s.mu.Unlock()
}

func (s *Server) track(conn net.Conn, add bool) {
	s.mu.Lock()
	if add {
		s.conns[conn] = struct{}{}
	} else {
		delete(s.conns, conn)
	}
	s.mu.Unlock()
}

func (s *Server) logf(level slog.Level, msg string, args ...any) {
	if s.opts.Logger != nil {
		s.opts.Logger.Log(context.Background(), level, msg, args...)
	}
}

// writeBuffer is the size of a connection's write buffer: a FETCH reply
// goes to the socket whenever this much has accumulated, and once more at
// its closing SUCCESS or FAILURE.
const writeBuffer = 64 << 10

// handleConn runs one connection: handshake, then the message loop. The
// deferred session close is the disconnect cleanup path — it cancels a
// producing cursor and releases its reservation, so an abandoned
// connection cannot leak result memory.
func (s *Server) handleConn(conn net.Conn) {
	h := &connHandler{srv: s, r: bufio.NewReader(conn), w: bufio.NewWriterSize(conn, writeBuffer)}
	if err := h.handshake(); err != nil {
		s.logf(slog.LevelWarn, "wire handshake failed", "remote", conn.RemoteAddr().String(), "error", err)
		return
	}
	h.sess = s.svc.OpenSession(conn.RemoteAddr().String())
	defer h.sess.Close()
	s.logf(slog.LevelInfo, "wire session open", "session", h.sess.ID(), "remote", h.sess.Client())
	defer s.logf(slog.LevelInfo, "wire session closed", "session", h.sess.ID())
	h.loop()
}

// handshake validates the magic and negotiates the protocol version.
func (h *connHandler) handshake() error {
	var hello [8]byte
	if _, err := io.ReadFull(h.r, hello[:]); err != nil {
		return fmt.Errorf("reading handshake: %w", err)
	}
	if string(hello[:4]) != Magic {
		return fmt.Errorf("bad magic %q", hello[:4])
	}
	proposed := uint32(hello[4])<<24 | uint32(hello[5])<<16 | uint32(hello[6])<<8 | uint32(hello[7])
	// 0 = rejected; the connection closes right after.
	var accept [4]byte
	if proposed == Version {
		accept[0] = byte(Version >> 24)
		accept[1] = byte(Version >> 16)
		accept[2] = byte(Version >> 8)
		accept[3] = byte(Version)
	}
	if _, err := h.w.Write(accept[:]); err != nil {
		return err
	}
	if err := h.w.Flush(); err != nil {
		return err
	}
	if proposed != Version {
		return fmt.Errorf("unsupported protocol version %d", proposed)
	}
	return nil
}

// connHandler is one connection's message loop state: the buffered
// connection, reusable frame buffers, the session everything executes
// through, and the cursor the last RUN opened.
type connHandler struct {
	srv  *Server
	r    *bufio.Reader
	w    *bufio.Writer
	sess *session.Session
	cur  *session.Cursor
	in   []byte
	out  []byte
}

func (h *connHandler) loop() {
	ctx := context.Background()
	for {
		frame, err := ReadFrame(h.r, h.in)
		if err != nil {
			return // disconnect; deferred session close cleans up
		}
		h.in = frame
		msg, body, err := ParseMessage(frame)
		if err != nil {
			_ = h.failure(CodeProtocol, err.Error()) // best-effort; the conn closes either way
			return
		}
		switch msg {
		case MsgHello:
			err = h.success(map[string]any{
				"server":      "vsserve",
				"version":     int64(Version),
				"fetch_batch": int64(h.srv.svc.FetchBatch()),
			})
		case MsgRun:
			err = h.handleRun(ctx, body)
		case MsgFetch:
			err = h.handleFetch()
		case MsgDiscard:
			if h.cur != nil {
				h.cur.Discard()
			}
			err = h.success(nil)
		case MsgPing:
			err = h.reply(MsgPong, nil)
		case MsgGoodbye:
			return
		default:
			err = h.failure(CodeProtocol, fmt.Sprintf("unexpected message type 0x%02X", msg))
		}
		if err != nil {
			return
		}
	}
}

// handleRun discards the previous query's cursor, then parses and starts a
// query, answering SUCCESS {columns, streaming} — rows only move on FETCH,
// and so do execution errors: RUN fails only on a syntax error or a query
// the session refuses to start.
// The discard comes first so that a RUN that fails to parse still ends the
// query before it.
func (h *connHandler) handleRun(ctx context.Context, body map[string]any) error {
	if h.cur != nil {
		h.cur.Discard()
	}
	text, ok := BodyString(body, "query")
	if !ok {
		return h.failure(CodeProtocol, "RUN without query")
	}
	var params map[string]any
	if p, ok := body["params"]; ok {
		params, ok = p.(map[string]any)
		if !ok {
			return h.failure(CodeProtocol, "RUN params is not a map")
		}
	}
	q, err := cypher.Parse(text)
	if err != nil {
		return h.failure(CodeSyntax, err.Error())
	}
	h.cur, err = h.sess.RunParsed(ctx, q, params)
	if err != nil {
		return h.failure(CodeQuery, err.Error())
	}
	cols := make([]any, len(h.cur.Columns()))
	for i, c := range h.cur.Columns() {
		cols[i] = c
	}
	return h.success(map[string]any{
		"columns":   cols,
		"streaming": h.cur.Streaming(),
	})
}

// handleFetch pulls one batch from the open cursor: a RECORD frame per
// row, then SUCCESS {has_more, rows}. The RECORD frames collect in the
// write buffer and leave with the closing SUCCESS or FAILURE. When the
// stream ended with a failure (kill, timeout, execution error), the
// FAILURE follows whatever rows were delivered first — the client sees a
// correct prefix, then the error.
func (h *connHandler) handleFetch() error {
	if h.cur == nil {
		return h.failure(CodeProtocol, "no cursor to FETCH from")
	}
	rows, more, err := h.cur.Fetch(0)
	for _, row := range rows {
		h.out = append(BeginFrame(h.out[:0]), MsgRecord)
		enc, eerr := AppendRecord(h.out, row)
		if eerr != nil {
			return h.failure(CodeQuery, eerr.Error())
		}
		h.out = enc
		if werr := WriteFrame(h.w, h.out); werr != nil {
			return werr
		}
	}
	if err != nil && !errors.Is(err, session.ErrCursorClosed) {
		return h.failure(CodeQuery, err.Error())
	}
	if errors.Is(err, session.ErrCursorClosed) {
		return h.failure(CodeProtocol, "cursor is closed")
	}
	return h.success(map[string]any{
		"has_more": more,
		"rows":     int64(len(rows)),
	})
}

func (h *connHandler) success(meta map[string]any) error {
	return h.reply(MsgSuccess, meta)
}

func (h *connHandler) failure(code, message string) error {
	return h.reply(MsgFailure, map[string]any{"code": code, "message": message})
}

// reply sends the message that ends a reply (SUCCESS, FAILURE or PONG) and
// flushes the write buffer: the only point where a reply's bytes are
// pushed to the socket rather than left for a full buffer to push.
func (h *connHandler) reply(msg byte, body map[string]any) error {
	if err := h.send(msg, body); err != nil {
		return err
	}
	return h.w.Flush()
}

// send writes one frame into the write buffer.
func (h *connHandler) send(msg byte, body map[string]any) error {
	enc, err := AppendMessage(BeginFrame(h.out[:0]), msg, body)
	if err != nil {
		return err
	}
	h.out = enc
	return WriteFrame(h.w, h.out)
}
