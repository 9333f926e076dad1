// Command vsquery runs VLGPM queries (in the supported openCypher subset)
// against a stored graph.
//
// Usage:
//
//	vsquery -data ./data/lastfm \
//	        -query 'MATCH (p:SIGA)-[:knows*..3]-(q:SIGA) RETURN COUNT(DISTINCT p,q)'
//	vsquery -data ./data/fin -file tcr1.cypher -param id=1234
//	vsquery -data ./data/lastfm \
//	        -query 'PROFILE MATCH (p:SIGA)-[:knows*..3]-(q:SIGA) RETURN COUNT(DISTINCT p,q)'
//
// Prefixing the query with PROFILE prints the per-operator span tree
// (planner, each expand with kernel and memo state, the intersection join)
// after the result. An EXPLAIN prefix prints the plan without executing;
// EXPLAIN ANALYZE executes with tracing forced on and prints the
// planner-estimate-vs-actual operator table.
//
// Parameters given as -param name=value are typed by shape: integers become
// int64, true/false become bool, comma-separated integers become an int64
// list (for UNWIND), anything else stays a string.
//
// With -wire host:port the query runs against a vsserve -wire-addr listener
// over the framed binary streaming protocol instead of a local graph (-data
// is not needed); rows print incrementally as the server streams them.
// -json switches the output to one JSON array per row, for scripting.
// The wire protocol streams rows only, so EXPLAIN and PROFILE fail there.
// A flag the chosen mode would ignore exits 2 (see checkFlags).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"
	"time"

	vertexsurge "repro"
	"repro/client"
	"repro/internal/repl"
	"repro/internal/telemetry"
)

type paramFlags map[string]any

// String implements flag.Value.
func (p paramFlags) String() string { return fmt.Sprint(map[string]any(p)) }

// Set implements flag.Value: it parses one name=value pair.
func (p paramFlags) Set(s string) error {
	name, raw, ok := strings.Cut(s, "=")
	if !ok {
		return fmt.Errorf("want name=value, got %q", s)
	}
	p[name] = typedValue(raw)
	return nil
}

func typedValue(raw string) any {
	if n, err := strconv.ParseInt(raw, 10, 64); err == nil {
		return n
	}
	if raw == "true" || raw == "false" {
		return raw == "true"
	}
	if strings.Contains(raw, ",") {
		parts := strings.Split(raw, ",")
		ints := make([]int64, 0, len(parts))
		for _, part := range parts {
			n, err := strconv.ParseInt(strings.TrimSpace(part), 10, 64)
			if err != nil {
				return raw
			}
			ints = append(ints, n)
		}
		return ints
	}
	return raw
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("vsquery: ")
	params := paramFlags{}
	var (
		data        = flag.String("data", "", "graph directory written by vsgen (required)")
		query       = flag.String("query", "", "query text")
		file        = flag.String("file", "", "file containing the query")
		workers     = flag.Int("workers", 0, "worker count (0 = GOMAXPROCS)")
		timing      = flag.Bool("timing", false, "print the per-stage breakdown")
		timeout     = flag.Duration("timeout", 0, "cancel the query after this deadline (0 = none)")
		dialTimeout = flag.Duration("dial-timeout", 5*time.Second, "with -wire: give up connecting after this long (0 = wait forever)")
		interactive = flag.Bool("i", false, "interactive shell (ignores -query/-file)")
		traceOut    = flag.String("trace-out", "", "write the executed query's span tree as a Chrome trace-event JSON file (chrome://tracing)")
		wireAddr    = flag.String("wire", "", "query a vsserve -wire-addr listener (host:port) over the binary streaming protocol instead of opening -data")
		jsonOut     = flag.Bool("json", false, "with -wire: print one JSON array per row (no header or footer)")
	)
	flag.Var(params, "param", "query parameter name=value (repeatable)")
	flag.Parse()

	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
	if err := checkFlags(set); err != nil {
		log.Print(err)
		flag.Usage()
		os.Exit(2)
	}
	if (*data == "" && *wireAddr == "") || (!*interactive && (*query == "") == (*file == "")) {
		flag.Usage()
		os.Exit(2)
	}
	src := *query
	if *file != "" {
		raw, err := os.ReadFile(*file)
		if err != nil {
			log.Fatal(err)
		}
		src = string(raw)
	}

	if *wireAddr != "" {
		runWire(*wireAddr, src, params, *jsonOut, *dialTimeout)
		return
	}

	db, err := vertexsurge.Open(*data, vertexsurge.Options{Workers: *workers})
	if err != nil {
		log.Fatal(err)
	}
	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	if *interactive {
		sh := repl.New(db.Engine(), os.Stdin, os.Stdout)
		sh.Params = params
		if err := sh.Run(); err != nil {
			log.Fatal(err)
		}
		return
	}
	// Registry administration (SHOW QUERIES / KILL <id>) — the same
	// statements the REPL accepts — bypasses the Cypher parser.
	if handled, out, err := repl.Admin(src); handled {
		if err != nil {
			log.Fatal(err)
		}
		fmt.Print(out)
		return
	}
	var root *telemetry.Span
	if *traceOut != "" {
		ctx, root = telemetry.NewTrace(ctx, "query")
	}
	start := time.Now()
	res, err := db.QueryContext(ctx, src, params)
	if err != nil {
		log.Fatal(err)
	}
	elapsed := time.Since(start)
	if root != nil {
		root.End()
		f, err := os.Create(*traceOut)
		if err != nil {
			log.Fatal(err)
		}
		if err := telemetry.WriteChromeTrace(f, root.Snapshot()); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(os.Stderr, "vsquery: chrome trace written to %s\n", *traceOut)
	}
	if res.Plan != "" {
		fmt.Print(res.Plan)
		return
	}
	if res.Analysis != nil {
		fmt.Print(res.Analysis.Render())
		return
	}

	for i, col := range res.Columns {
		if i > 0 {
			fmt.Print("\t")
		}
		fmt.Print(col)
	}
	fmt.Println()
	for _, row := range res.Rows {
		for i, v := range row {
			if i > 0 {
				fmt.Print("\t")
			}
			fmt.Print(v)
		}
		fmt.Println()
	}
	fmt.Printf("-- %d row(s) in %s\n", len(res.Rows), elapsed.Round(time.Microsecond))
	if res.Profile != nil {
		fmt.Print(res.Profile.Render())
	}
	if *timing {
		tm := res.Timings
		fmt.Printf("-- scan %s, expand %s, update-visit %s, intersect %s, aggregate %s\n",
			tm.Scan, tm.Expand, tm.UpdateVisit, tm.Intersect, tm.Aggregate)
	}
}

// checkFlags rejects a flag the chosen mode would silently ignore: -json
// and -dial-timeout need -wire, and the local-graph flags are refused with
// it. set holds the names of the flags given on the command line.
func checkFlags(set map[string]bool) error {
	ignored, mode := []string{"json", "dial-timeout"}, "without -wire"
	if set["wire"] {
		ignored, mode = []string{"data", "i", "timeout", "workers", "timing", "trace-out"}, "with -wire"
	}
	for _, name := range ignored {
		if set[name] {
			return fmt.Errorf("-%s has no effect %s", name, mode)
		}
	}
	return nil
}

// runWire executes the query over the binary streaming protocol, printing
// rows as they arrive — client memory holds one fetch batch at a time
// however large the result. dialTimeout bounds connection establishment so
// a dead host fails fast instead of hanging the CLI.
func runWire(addr, src string, params map[string]any, jsonOut bool, dialTimeout time.Duration) {
	c, err := client.Dial(addr, client.Options{DialTimeout: dialTimeout, Client: "vsquery"})
	if err != nil {
		log.Fatal(err)
	}
	defer c.Close() //vs:nolint(unchecked-err) read-side teardown on exit; query errors already surfaced
	start := time.Now()
	rows, err := c.Run(src, params)
	if err != nil {
		log.Fatal(err)
	}
	out := json.NewEncoder(os.Stdout)
	if !jsonOut {
		fmt.Println(strings.Join(rows.Columns(), "\t"))
	}
	var n int64
	for {
		row, err := rows.Next()
		if err == client.ErrDone {
			break
		}
		if err != nil {
			log.Fatal(err)
		}
		if jsonOut {
			if err := out.Encode(row); err != nil {
				log.Fatal(err)
			}
		} else {
			for i, v := range row {
				if i > 0 {
					fmt.Print("\t")
				}
				fmt.Print(v)
			}
			fmt.Println()
		}
		n++
	}
	if !jsonOut {
		fmt.Printf("-- %d row(s) in %s\n", n, time.Since(start).Round(time.Microsecond))
	}
}
