// Package repl implements the interactive shell behind `vsquery -i`: read
// a query (possibly spanning lines until a terminating semicolon), execute
// it against the engine, print the result table, repeat. Backslash
// commands cover the non-query surface:
//
//	\stats            graph statistics
//	\timing on|off    toggle the per-stage breakdown
//	\help             list commands
//	\quit             exit
//
// Prefixing a query with PROFILE executes it and prints the per-operator
// span tree (planner, each expand with its kernel and memo state, the
// intersection join) under the result table. EXPLAIN prints the plan
// without executing; EXPLAIN ANALYZE executes with tracing forced on and
// prints the planner-estimate-vs-actual operator table.
package repl

import (
	"bufio"
	"fmt"
	"io"
	"strings"
	"time"

	"repro/internal/cypher"
	"repro/internal/engine"
)

// REPL is an interactive query loop over one engine.
type REPL struct {
	eng    *engine.Engine
	in     *bufio.Scanner
	out    io.Writer
	timing bool
	// Params are bound into every executed query ($name references).
	Params map[string]any
}

// New returns a REPL reading queries from in and printing to out.
func New(eng *engine.Engine, in io.Reader, out io.Writer) *REPL {
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	return &REPL{eng: eng, in: sc, out: out, Params: map[string]any{}}
}

// Run reads and executes until EOF or \quit. Errors are printed, never
// fatal; the returned error reports only input-stream failures.
func (r *REPL) Run() error {
	fmt.Fprintln(r.out, `VertexSurge shell — end queries with ';', \help for commands`)
	var pending strings.Builder
	prompt := func() {
		if pending.Len() == 0 {
			fmt.Fprint(r.out, "vs> ")
		} else {
			fmt.Fprint(r.out, "...> ")
		}
	}
	prompt()
	for r.in.Scan() {
		line := r.in.Text()
		trimmed := strings.TrimSpace(line)
		if pending.Len() == 0 && strings.HasPrefix(trimmed, `\`) {
			if quit := r.command(trimmed); quit {
				return nil
			}
			prompt()
			continue
		}
		if trimmed == "" && pending.Len() == 0 {
			prompt()
			continue
		}
		pending.WriteString(line)
		pending.WriteString("\n")
		if strings.HasSuffix(trimmed, ";") {
			r.execute(pending.String())
			pending.Reset()
		}
		prompt()
	}
	if pending.Len() > 0 {
		r.execute(pending.String())
	}
	return r.in.Err()
}

// command handles one backslash command; reports whether to quit.
func (r *REPL) command(line string) bool {
	cmd, rest, _ := strings.Cut(line, " ")
	switch cmd {
	case `\q`, `\quit`, `\exit`:
		fmt.Fprintln(r.out, "bye")
		return true
	case `\help`, `\h`:
		fmt.Fprintln(r.out, `commands:
  <query>;           execute a query (may span lines)
  PROFILE <query>;   execute and print the operator span tree
  EXPLAIN <query>;   show the plan without executing
  EXPLAIN ANALYZE <query>;
                     execute and print estimate-vs-actual per operator
  SHOW QUERIES;      list running queries (live progress) and history
  KILL <id>;         cancel the running query with that id
  \stats             graph statistics
  \timing on|off     per-stage breakdown after each query
  \quit              exit`)
	case `\stats`:
		g := r.eng.Graph()
		fmt.Fprintf(r.out, "|V| = %d, |E| = %d, %s\n", g.NumVertices(), g.NumEdges(), fmtBytes(g.SizeBytes()))
		for _, l := range g.VertexLabels() {
			fmt.Fprintf(r.out, "  :%s %d\n", l, g.Label(l).PopCount())
		}
		for _, l := range g.EdgeLabels() {
			fmt.Fprintf(r.out, "  [:%s] %d\n", l, g.Edges(l).Len())
		}
	case `\timing`:
		switch strings.TrimSpace(rest) {
		case "on":
			r.timing = true
			fmt.Fprintln(r.out, "timing on")
		case "off":
			r.timing = false
			fmt.Fprintln(r.out, "timing off")
		default:
			fmt.Fprintln(r.out, `usage: \timing on|off`)
		}
	default:
		fmt.Fprintf(r.out, "unknown command %s (try \\help)\n", cmd)
	}
	return false
}

func (r *REPL) execute(src string) {
	// Registry administration (SHOW QUERIES / KILL <id>) is handled before
	// the Cypher parser ever sees the text.
	if handled, out, err := Admin(src); handled {
		if err != nil {
			fmt.Fprintf(r.out, "error: %v\n", err)
			return
		}
		fmt.Fprint(r.out, out)
		return
	}
	q, err := cypher.Parse(src)
	if err != nil {
		fmt.Fprintf(r.out, "error: %v\n", err)
		return
	}
	start := time.Now()
	res, err := cypher.Run(r.eng, q, r.Params)
	if err != nil {
		fmt.Fprintf(r.out, "error: %v\n", err)
		return
	}
	elapsed := time.Since(start)
	if res.Plan != "" {
		fmt.Fprint(r.out, res.Plan)
		return
	}
	if res.Analysis != nil {
		fmt.Fprint(r.out, res.Analysis.Render())
		return
	}
	printTable(r.out, res)
	fmt.Fprintf(r.out, "(%d row(s) in %s)\n", len(res.Rows), elapsed.Round(time.Microsecond))
	if res.Profile != nil {
		fmt.Fprint(r.out, res.Profile.Render())
	}
	if r.timing {
		tm := res.Timings
		fmt.Fprintf(r.out, "(scan %s, expand %s, update-visit %s, intersect %s, aggregate %s)\n",
			tm.Scan.Round(time.Microsecond), tm.Expand.Round(time.Microsecond),
			tm.UpdateVisit.Round(time.Microsecond), tm.Intersect.Round(time.Microsecond),
			tm.Aggregate.Round(time.Microsecond))
	}
}

// printTable renders a result with column-width alignment.
func printTable(w io.Writer, res *cypher.Result) {
	widths := make([]int, len(res.Columns))
	for i, c := range res.Columns {
		widths[i] = len(c)
	}
	cells := make([][]string, len(res.Rows))
	for ri, row := range res.Rows {
		cells[ri] = make([]string, len(row))
		for ci, v := range row {
			s := fmt.Sprint(v)
			cells[ri][ci] = s
			if ci < len(widths) && len(s) > widths[ci] {
				widths[ci] = len(s)
			}
		}
	}
	for i, c := range res.Columns {
		fmt.Fprintf(w, "%-*s  ", widths[i], c)
		_ = i
	}
	fmt.Fprintln(w)
	for i := range res.Columns {
		fmt.Fprint(w, strings.Repeat("-", widths[i]), "  ")
	}
	fmt.Fprintln(w)
	for _, row := range cells {
		for ci, s := range row {
			fmt.Fprintf(w, "%-*s  ", widths[ci], s)
		}
		fmt.Fprintln(w)
	}
}

func fmtBytes(n int64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.1fGiB", float64(n)/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.1fMiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1fKiB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%dB", n)
	}
}
