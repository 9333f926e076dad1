package wire

import (
	"encoding/binary"
	"fmt"
	"io"
)

// Framing: every message is one frame — a u32 big-endian payload length
// followed by the payload. The payload's first byte is the message type,
// the rest is the body (one encoded value, usually a map — except RECORD,
// whose body is the compact row encoding).
const (
	// Magic opens the handshake: the client sends these 4 bytes followed by
	// a u32 big-endian proposed protocol version; the server answers with
	// the u32 version it accepts, or 0 before closing when no version
	// overlaps.
	Magic = "VSWP"
	// Version is the protocol version; the handshake refuses any other.
	Version uint32 = 2
	// MaxFrame caps a frame's payload so a hostile peer cannot make the
	// receiver allocate unboundedly.
	MaxFrame = 16 << 20
)

// Message types. Requests flow client→server, responses server→client.
const (
	MsgHello   = 0x01 // client introduction; body {client}
	MsgRun     = 0x02 // start a query; body {query, params?}
	MsgFetch   = 0x03 // pull one batch from the open cursor; empty body
	MsgDiscard = 0x04 // abandon the open cursor; empty body
	MsgPing    = 0x05 // liveness probe; empty body
	MsgGoodbye = 0x06 // orderly close; empty body

	MsgSuccess = 0x70 // request completed; body is a metadata map
	MsgRecord  = 0x71 // one result row; body is the compact row encoding
	MsgPong    = 0x72 // PING answer; empty body
	MsgFailure = 0x7F // request failed; body {code, message}
)

// Failure codes carried in FAILURE {code}.
const (
	CodeSyntax   = "syntax_error"   // query failed to parse
	CodeQuery    = "query_error"    // execution failed (binding, budget, timeout, kill)
	CodeProtocol = "protocol_error" // malformed or out-of-sequence message
)

// frameHeader is the size of a frame's length prefix.
const frameHeader = 4

// BeginFrame appends room for a frame's length prefix to buf. The caller
// encodes the payload after it and hands the whole buffer to WriteFrame, so
// a frame reaches the writer in one Write and no header escapes to the heap.
func BeginFrame(buf []byte) []byte {
	return append(buf, 0, 0, 0, 0)
}

// WriteFrame fills in the length prefix BeginFrame reserved at the front of
// frame and writes the frame with one Write.
func WriteFrame(w io.Writer, frame []byte) error {
	binary.BigEndian.PutUint32(frame, uint32(len(frame)-frameHeader))
	_, err := w.Write(frame)
	return err
}

// ReadFrame reads the next frame's payload, reusing buf (for the header
// too) when it fits.
func ReadFrame(r io.Reader, buf []byte) ([]byte, error) {
	if cap(buf) < frameHeader {
		buf = make([]byte, frameHeader)
	}
	buf = buf[:frameHeader]
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(buf)
	if n > MaxFrame {
		return nil, fmt.Errorf("wire: frame of %d bytes exceeds limit %d", n, MaxFrame)
	}
	if uint32(cap(buf)) < n {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, err
	}
	return buf, nil
}

// AppendMessage encodes a typed message with a map body (nil body = empty
// map) into buf.
func AppendMessage(buf []byte, msg byte, body map[string]any) ([]byte, error) {
	buf = append(buf, msg)
	if body == nil {
		body = map[string]any{}
	}
	return appendValue(buf, body)
}

// ParseMessage splits a frame into its type and decoded map body. RECORD
// frames must not go through here — their body is a row, not a map.
func ParseMessage(frame []byte) (byte, map[string]any, error) {
	if len(frame) == 0 {
		return 0, nil, fmt.Errorf("%w: empty message", ErrBadValue)
	}
	msg := frame[0]
	if len(frame) == 1 {
		return msg, map[string]any{}, nil
	}
	v, off, err := readValue(frame, 1)
	if err != nil {
		return 0, nil, err
	}
	if off != len(frame) {
		return 0, nil, fmt.Errorf("%w: %d trailing bytes after message body", ErrBadValue, len(frame)-off)
	}
	body, ok := v.(map[string]any)
	if !ok {
		return 0, nil, fmt.Errorf("%w: message body is %T, want map", ErrBadValue, v)
	}
	return msg, body, nil
}

// BodyString extracts a string field from a message body.
func BodyString(body map[string]any, key string) (string, bool) {
	s, ok := body[key].(string)
	return s, ok
}

// BodyInt extracts an integer field from a message body.
func BodyInt(body map[string]any, key string) (int64, bool) {
	n, ok := body[key].(int64)
	return n, ok
}
