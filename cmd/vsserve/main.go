// Command vsserve serves a stored graph as a read-only HTTP query service.
//
// Usage:
//
//	vsserve -data ./data/lastfm -addr :7474
//	curl -s localhost:7474/stats
//	curl -s localhost:7474/metrics
//	curl -s localhost:7474/query -d '{"query":"MATCH (p:SIGA)-[:knows*..3]-(q:SIGA) RETURN COUNT(DISTINCT p,q)"}'
//
// Operational flags:
//
//	-wire-addr :7688             framed binary streaming protocol listener (off by default);
//	                             query with vsquery -wire or the repro/client package
//	-fetch-batch 256             rows per streamed-cursor fetch batch (bounds per-cursor memory)
//	-max-request-bytes 1048576   cap HTTP request bodies; larger bodies get a clear 400
//	-debug-addr 127.0.0.1:6060   net/http/pprof endpoints (off by default)
//	-slow-query 500ms            log the operator span tree of slower queries
//	-access-log                  structured access log with request IDs (on by default)
//	-query-timeout 30s           cancel queries exceeding this deadline → 504 (0 = none)
//	-cache-bytes 64MiB           engine-level reachability-matrix cache (-1 = off)
//	-memory-budget N             cap live intermediate bytes across queries (0 = unlimited)
//
// Observability: GET /metrics (and /metrics on -debug-addr) is the
// Prometheus exposition of every engine, accountant and runtime number;
// rates, quantiles and alerts belong to whatever scrapes it. GET
// /debug/queries lists in-flight queries (live per-operator progress) and
// the completed history; DELETE /debug/queries/{id} kills a running query.
package main

import (
	"flag"
	"fmt"
	"log"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"time"

	"repro/internal/engine"
	"repro/internal/server"
	"repro/internal/session"
	"repro/internal/storage"
	"repro/internal/telemetry"
	"repro/internal/wire"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("vsserve: ")
	var (
		data         = flag.String("data", "", "graph directory written by vsgen (required)")
		addr         = flag.String("addr", ":7474", "listen address")
		wireAddr     = flag.String("wire-addr", "", "framed binary wire-protocol listen address (empty = off)")
		fetchBatch   = flag.Int("fetch-batch", session.DefaultFetchBatch, "rows per streamed-cursor fetch batch")
		maxReqBytes  = flag.Int64("max-request-bytes", server.DefaultMaxRequestBytes, "maximum HTTP request body bytes")
		workers      = flag.Int("workers", 0, "worker count (0 = GOMAXPROCS)")
		debugAddr    = flag.String("debug-addr", "", "optional net/http/pprof listen address (e.g. 127.0.0.1:6060)")
		slowQuery    = flag.Duration("slow-query", 0, "log the span tree of queries slower than this (0 = off)")
		accessLog    = flag.Bool("access-log", true, "structured access log with request IDs")
		queryTimeout = flag.Duration("query-timeout", 0, "cancel queries exceeding this deadline with 504 (0 = none)")
		cacheBytes   = flag.Int64("cache-bytes", engine.DefaultCacheBytes, "engine-level reachability-matrix cache bytes (0 or negative = off)")
		memoryBudget = flag.Int64("memory-budget", 0, "cap live intermediate bytes across queries (0 = unlimited)")
	)
	flag.Parse()
	if *data == "" {
		flag.Usage()
		os.Exit(2)
	}
	g, err := storage.Open(*data)
	if err != nil {
		log.Fatal(err)
	}
	cache := *cacheBytes
	if cache < 0 {
		cache = 0
	}
	eng := engine.New(g, engine.Options{
		Workers:      *workers,
		CacheBytes:   cache,
		MemoryBudget: *memoryBudget,
	})

	var logger *slog.Logger
	if *accessLog || *slowQuery > 0 {
		logger = slog.New(slog.NewTextHandler(os.Stderr, nil))
	}

	// Publish the serving engine's accountant occupancy on /metrics as
	// vs_memory_in_use_bytes / vs_memory_limit_bytes.
	telemetry.SetMemoryStats(func() (used, limit int64) {
		return eng.MemoryInUse(), eng.MemoryLimit()
	})

	// One session service behind both transports: the HTTP handlers and
	// the wire listener share query timeout, cursor batch size, and the
	// engine accountant metering cursor buffers.
	svc := session.NewService(eng, session.Options{
		QueryTimeout: *queryTimeout,
		FetchBatch:   *fetchBatch,
	})
	srv := server.NewWithService(svc, server.Options{
		Logger:          logger,
		SlowQuery:       *slowQuery,
		MaxRequestBytes: *maxReqBytes,
	})

	if *debugAddr != "" {
		go serveDebug(*debugAddr)
	}
	if *wireAddr != "" {
		wln, err := net.Listen("tcp", *wireAddr)
		if err != nil {
			log.Fatal(err)
		}
		ws := wire.NewServer(svc, wire.Options{Logger: logger})
		fmt.Printf("wire protocol on %s\n", wln.Addr())
		go func() { log.Fatal(ws.Serve(wln)) }()
	}

	// Listen before announcing so `-addr 127.0.0.1:0` prints the actual
	// bound port (the verify.sh smoke step scrapes this line).
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("serving %s (|V|=%d |E|=%d) on %s\n", *data, g.NumVertices(), g.NumEdges(), ln.Addr())
	log.Fatal(http.Serve(ln, srv))
}

// serveDebug exposes the pprof endpoints and a second /metrics on a
// dedicated (typically loopback-only) listener, keeping profiling off the
// public query port.
func serveDebug(addr string) {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_, _ = telemetry.Default.WriteTo(w)
	})
	dbg := &http.Server{Addr: addr, Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	log.Printf("debug server (pprof, /metrics) on %s", addr)
	log.Fatal(dbg.ListenAndServe())
}
