package wire

import (
	"bufio"
	"bytes"
	"math"
	"reflect"
	"testing"
)

func TestValueRoundTrip(t *testing.T) {
	cases := []any{
		nil,
		true,
		false,
		int64(0),
		int64(1),
		int64(127), // tiny-int boundary
		int64(128), // first tagged int
		int64(-1),
		int64(math.MaxInt64),
		int64(math.MinInt64),
		3.5,
		math.Inf(-1),
		"",
		"hello",
		"snowman ☃",
		[]any{},
		[]any{int64(1), "two", true, nil},
		[]any{[]any{int64(1)}, []any{int64(2)}},
		map[string]any{},
		map[string]any{"a": int64(1), "b": "x", "c": []any{int64(9)}},
	}
	for _, in := range cases {
		buf, err := appendValue(nil, in)
		if err != nil {
			t.Fatalf("appendValue(%#v): %v", in, err)
		}
		out, off, err := readValue(buf, 0)
		if err != nil {
			t.Fatalf("readValue(%#v): %v", in, err)
		}
		if off != len(buf) {
			t.Fatalf("readValue(%#v) consumed %d of %d bytes", in, off, len(buf))
		}
		if !reflect.DeepEqual(out, in) {
			t.Fatalf("round trip %#v → %#v", in, out)
		}
	}
}

// TestIntListNormalization: []int64 and []string encode as lists and decode
// as []any — the wire type system has one list shape.
func TestIntListNormalization(t *testing.T) {
	buf, err := appendValue(nil, []int64{1, 200, -3})
	if err != nil {
		t.Fatal(err)
	}
	out, _, err := readValue(buf, 0)
	if err != nil {
		t.Fatal(err)
	}
	if want := []any{int64(1), int64(200), int64(-3)}; !reflect.DeepEqual(out, want) {
		t.Fatalf("got %#v, want %#v", out, want)
	}
}

func TestRecordRoundTrip(t *testing.T) {
	rows := [][]any{
		{},
		{int64(0)},
		{int64(1), int64(2), int64(3)},
		{int64(127), int64(128), int64(-1), int64(math.MaxInt64)},
		{int64(7), "name", 2.5, nil, true},
	}
	for _, row := range rows {
		buf, err := AppendRecord(nil, row)
		if err != nil {
			t.Fatalf("AppendRecord(%#v): %v", row, err)
		}
		out, err := ReadRecord(buf)
		if err != nil {
			t.Fatalf("ReadRecord(%#v): %v", row, err)
		}
		want := row
		if len(want) == 0 {
			want = []any{}
		}
		if !reflect.DeepEqual(out, want) {
			t.Fatalf("round trip %#v → %#v", row, out)
		}
	}
}

// TestRecordCompactness pins the hot-path encoding density: a row of small
// vertex ids costs one byte per value plus the arity varint.
func TestRecordCompactness(t *testing.T) {
	row := []any{int64(3), int64(17), int64(99)}
	buf, err := AppendRecord(nil, row)
	if err != nil {
		t.Fatal(err)
	}
	if len(buf) != 4 {
		t.Fatalf("3 tiny ids encoded to %d bytes, want 4", len(buf))
	}
}

func TestTinyIntBoundary(t *testing.T) {
	for _, v := range []int64{0, 1, 127} {
		var buf [16]byte
		off := putInt(buf[:], 0, v)
		if off != 1 {
			t.Fatalf("putInt(%d) used %d bytes, want 1", v, off)
		}
		got, next := getInt(buf[:], 0)
		if got != v || next != 1 {
			t.Fatalf("getInt(%d) = %d, %d", v, got, next)
		}
	}
	var buf [16]byte
	off := putInt(buf[:], 0, 128)
	if off < 2 {
		t.Fatalf("putInt(128) used %d bytes, want tag+varint", off)
	}
	if got, _ := getInt(buf[:], 0); got != 128 {
		t.Fatalf("getInt(128) = %d", got)
	}
}

func TestDecodeRejects(t *testing.T) {
	cases := map[string][]byte{
		"empty":                {},
		"unknown tag":          {0xFF},
		"truncated string":     {tagString, 0x05, 'a'},
		"truncated float":      {tagFloat, 1, 2, 3},
		"truncated int varint": {tagInt, 0x80},
		"oversized list count": {tagList, 0xFF, 0xFF, 0x01},
		"oversized map count":  {tagMap, 0xFF, 0xFF, 0x01},
		"map key not a string": {tagMap, 0x01, 0x05, 0x05},
		"varint overflow":      {tagInt, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F},
	}
	for name, buf := range cases {
		if _, _, err := readValue(buf, 0); err == nil {
			t.Errorf("%s: decode succeeded on %x", name, buf)
		}
	}
	// Deep nesting beyond maxDepth.
	deep := bytes.Repeat([]byte{tagList, 0x01}, maxDepth+2)
	if _, _, err := readValue(deep, 0); err == nil {
		t.Error("deeply nested list decoded")
	}
}

func TestMessageRoundTrip(t *testing.T) {
	body := map[string]any{
		"query":  "MATCH (a) RETURN a",
		"params": map[string]any{"id": int64(42), "ids": []any{int64(1), int64(2)}},
	}
	frame, err := AppendMessage(nil, MsgRun, body)
	if err != nil {
		t.Fatal(err)
	}
	msg, got, err := ParseMessage(frame)
	if err != nil {
		t.Fatal(err)
	}
	if msg != MsgRun || !reflect.DeepEqual(got, body) {
		t.Fatalf("round trip: msg=0x%02X body=%#v", msg, got)
	}
}

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, append(BeginFrame(nil), "abc"...)); err != nil {
		t.Fatal(err)
	}
	if err := WriteFrame(&buf, append(BeginFrame(nil), "defg"...)); err != nil {
		t.Fatal(err)
	}
	if got, want := buf.Bytes(), "\x00\x00\x00\x03abc\x00\x00\x00\x04defg"; string(got) != want {
		t.Fatalf("wire bytes = %q, want %q", got, want)
	}
	f1, err := ReadFrame(&buf, nil)
	if err != nil || string(f1) != "abc" {
		t.Fatalf("frame 1 = %q, %v", f1, err)
	}
	f2, err := ReadFrame(&buf, f1)
	if err != nil || string(f2) != "defg" {
		t.Fatalf("frame 2 = %q, %v", f2, err)
	}
}

func TestFrameTooLarge(t *testing.T) {
	hdr := []byte{0xFF, 0xFF, 0xFF, 0xFF}
	if _, err := ReadFrame(bytes.NewReader(hdr), nil); err == nil {
		t.Fatal("oversized frame accepted")
	}
}

// TestFrameIOAllocs: a RECORD frame written into a bufio.Writer and read
// back through a bufio.Reader costs no allocation once the buffers exist —
// the length prefix lives in the frame buffers, not in a header array that
// escapes through the io.Writer / io.Reader interface.
func TestFrameIOAllocs(t *testing.T) {
	var conn bytes.Buffer
	w, r := bufio.NewWriter(&conn), bufio.NewReader(&conn)
	out, err := AppendRecord(append(BeginFrame(nil), MsgRecord), []any{int64(7), int64(300), int64(70000)})
	if err != nil {
		t.Fatal(err)
	}
	var in []byte
	allocs := testing.AllocsPerRun(100, func() {
		if err := WriteFrame(w, out); err != nil {
			t.Fatal(err)
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		frame, err := ReadFrame(r, in)
		if err != nil {
			t.Fatal(err)
		}
		in = frame
	})
	if allocs != 0 {
		t.Fatalf("frame write + read: %v allocs, want 0", allocs)
	}
	if !bytes.Equal(in, out[4:]) {
		t.Fatalf("read back % x, want % x", in, out[4:])
	}
}
