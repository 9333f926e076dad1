package main

import (
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/client"
	"repro/internal/datagen"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/session"
	"repro/internal/storage"
	"repro/internal/wire"
)

// stack is the program under test, assembled the way cmd/vsserve assembles
// it: a stored graph, an engine with the shipped cache size and worker
// default, one session service, and the VSWP listener on a loopback port.
type stack struct {
	g        *graph.Graph
	eng      *engine.Engine
	svc      *session.Service
	ws       *wire.Server
	ln       net.Listener
	done     chan struct{} // closed when Serve returns
	serveErr error         // Serve's return value, valid once done is closed
}

func startStack(dir string) (*stack, error) {
	g, err := storage.Open(dir)
	if err != nil {
		return nil, err
	}
	eng := engine.New(g, engine.Options{Workers: 0, CacheBytes: engine.DefaultCacheBytes})
	svc := session.NewService(eng, session.Options{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &stack{g: g, eng: eng, svc: svc, ws: wire.NewServer(svc, wire.Options{}), ln: ln, done: make(chan struct{})}
	go func() { //vs:nolint(ctx-propagation) the accept loop lives as long as the listener: stack.close closes it and waits on done
		s.serveErr = s.ws.Serve(ln)
		close(s.done)
	}()
	return s, nil
}

func (s *stack) addr() string { return s.ln.Addr().String() }

func (s *stack) dial() (*client.Conn, error) {
	return client.Dial(s.addr(), client.Options{DialTimeout: 5 * time.Second, Client: "vsledger"})
}

// close stops the listener, drops every connection, and waits for the
// accept loop and the per-connection sessions to end.
func (s *stack) close() error {
	err := s.ln.Close()
	s.ws.Close()
	if <-s.done; err == nil {
		err = s.serveErr
	}
	if !waitFor(func() bool { return s.svc.SessionCount() == 0 }) && err == nil {
		err = fmt.Errorf("%d session(s) still open after server close", s.svc.SessionCount())
	}
	return err
}

// liveBytes is the accountant's reservation net of cache residency: what
// in-flight queries and open cursors hold. It must be zero between queries.
func (s *stack) liveBytes() int64 {
	_, cached := s.eng.CacheStats()
	return s.eng.MemoryInUse() - cached
}

// waitFor polls cond for up to two seconds — connection handlers and
// cursor producers unwind asynchronously after a close.
func waitFor(cond func() bool) bool {
	deadline := time.Now().Add(2 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(time.Millisecond)
	}
	return true
}

// storeInfo is the on-disk side of one workload's set-up.
type storeInfo struct {
	Dir         string
	WriteMs     float64
	BytesOnDisk int64
}

// writeGraph generates the workload's dataset (datagen seeds by dataset
// name, so the graph is the same on every run) and stores it under dir.
func writeGraph(w *workload, scale float64, dir string) (*storeInfo, error) {
	ds, err := datagen.Generate(w.Dataset, scale)
	if err != nil {
		return nil, err
	}
	info := &storeInfo{Dir: dir}
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	t0 := time.Now()
	if err := storage.Write(dir, ds.Graph); err != nil {
		return nil, err
	}
	info.WriteMs = ms(time.Since(t0))
	err = filepath.WalkDir(dir, func(_ string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		fi, err := d.Info()
		if err == nil {
			info.BytesOnDisk += fi.Size()
		}
		return err
	})
	return info, err
}

// coldSetup builds a fresh stack and times it from storage.Open to the
// first reply to the workload's first query, so lazily built structures
// (Hilbert order, COO, CSR) count whether they are built at open or on
// first use.
func coldSetup(dir string, w *workload, seed int64) (*stack, float64, error) {
	t0 := time.Now()
	st, err := startStack(dir)
	if err != nil {
		return nil, 0, err
	}
	conn, err := st.dial()
	if err != nil {
		return nil, 0, errors.Join(err, st.close())
	}
	_, err = runQuery(conn, w, newParamGen(w, st.g.NumVertices(), seed, 0).next(), w.Span)
	seconds := time.Since(t0).Seconds()
	if err = errors.Join(err, conn.Close()); err != nil {
		return nil, 0, errors.Join(err, st.close())
	}
	return st, seconds, nil
}

// goroutines counts goroutines after letting finished ones retire.
func goroutines() int {
	runtime.Gosched()
	return runtime.NumGoroutine()
}
