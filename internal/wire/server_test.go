package wire_test

import (
	"context"
	"net"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"repro/client"
	"repro/internal/datagen"
	"repro/internal/engine"
	"repro/internal/session"
	"repro/internal/wire"
)

// countingListener wraps every accepted conn so that the test can count the
// Write calls (and bytes) the server makes on its sockets.
type countingListener struct {
	net.Listener
	writes, bytes atomic.Int64
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &countingConn{Conn: c, l: l}, nil
}

type countingConn struct {
	net.Conn
	l *countingListener
}

func (c *countingConn) Write(p []byte) (int, error) {
	c.l.writes.Add(1)
	c.l.bytes.Add(int64(len(p)))
	return c.Conn.Write(p)
}

// TestFetchCoalescesWrites: a FETCH reply reaches the socket in at most
// ⌈reply bytes / write buffer⌉ + 1 writes, not one or two per row, and a
// batch whose encoding overflows the write buffer still arrives intact and
// in stream order.
func TestFetchCoalescesWrites(t *testing.T) {
	const writeBuffer = 64 << 10 // the server's per-connection write buffer
	for _, tc := range []struct {
		name            string
		vertices, edges int
		batch           int
	}{
		{"one batch", 200, 700, 256},
		{"batch over the write buffer", 2000, 6000, 1 << 14},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g, err := datagen.SocialNetwork(datagen.SocialConfig{
				NumVertices: tc.vertices, NumEdges: tc.edges, Seed: 8, CommunityFraction: 0.3,
			})
			if err != nil {
				t.Fatal(err)
			}
			svc := session.NewService(engine.New(g, engine.Options{}), session.Options{FetchBatch: tc.batch})
			inner, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			ln := &countingListener{Listener: inner}
			ws := wire.NewServer(svc, wire.Options{})
			go ws.Serve(ln)
			t.Cleanup(func() {
				ln.Close()
				ws.Close()
			})

			const query = `MATCH (p:Person)-[:knows]-(q:Person) RETURN p, q`
			sess := svc.OpenSession("reference")
			cur, err := sess.Run(context.Background(), query, nil)
			if err != nil {
				t.Fatal(err)
			}
			var want [][]any
			for more := true; more; {
				var rows [][]any
				rows, more, err = cur.Fetch(0)
				if err != nil {
					t.Fatal(err)
				}
				want = append(want, rows...)
			}
			sess.Close()
			if len(want) <= tc.batch/2 {
				t.Fatalf("%d rows cannot test a batch of %d", len(want), tc.batch)
			}

			c, err := client.Dial(ln.Addr().String(), client.Options{DialTimeout: 5 * time.Second})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			rows, err := c.Run(query, nil)
			if err != nil {
				t.Fatal(err)
			}
			// The first Next sends the first FETCH and reads its whole reply.
			writes, bytes := ln.writes.Load(), ln.bytes.Load()
			var got [][]any
			row, err := rows.Next()
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, row)
			writes, bytes = ln.writes.Load()-writes, ln.bytes.Load()-bytes
			t.Logf("a FETCH of %d rows: %d bytes in %d socket writes", min(tc.batch, len(want)), bytes, writes)
			if limit := (bytes+writeBuffer-1)/writeBuffer + 1; writes > limit {
				t.Fatalf("a %d-byte FETCH reply took %d socket writes, want at most %d", bytes, writes, limit)
			}
			if tc.batch > len(want) && bytes <= writeBuffer {
				t.Fatalf("the batch encodes to %d bytes, which does not overflow the %d-byte write buffer", bytes, writeBuffer)
			}
			for {
				row, err := rows.Next()
				if err == client.ErrDone {
					break
				}
				if err != nil {
					t.Fatal(err)
				}
				got = append(got, row)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("wire rows differ from the stream's: %d rows vs %d", len(got), len(want))
			}
		})
	}
}
