package repl

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/telemetry"
)

// Admin intercepts the registry-administration statements shared by the
// REPL and vsquery — they are operational commands, not Cypher, so they
// bypass the parser:
//
//	SHOW QUERIES   list in-flight queries (id, phase, progress) and the
//	               completed history ring
//	KILL <id>      cancel the in-flight query with that id
//
// It reports whether src was such a statement; when handled, out is the
// text to print and err a command-level failure (unknown id, bad syntax).
func Admin(src string) (handled bool, out string, err error) {
	fields := strings.Fields(strings.TrimSuffix(strings.TrimSpace(src), ";"))
	if len(fields) == 0 {
		return false, "", nil
	}
	switch strings.ToUpper(fields[0]) {
	case "SHOW":
		if len(fields) != 2 || !strings.EqualFold(fields[1], "QUERIES") {
			return false, "", nil
		}
		return true, renderQueries(telemetry.DefaultQueries.Snapshot()), nil
	case "KILL":
		if len(fields) != 2 {
			return true, "", fmt.Errorf("usage: KILL <id>")
		}
		id, perr := strconv.ParseUint(fields[1], 10, 64)
		if perr != nil {
			return true, "", fmt.Errorf("usage: KILL <id> (got %q)", fields[1])
		}
		if !telemetry.DefaultQueries.Kill(id) {
			return true, "", fmt.Errorf("no running query %d", id)
		}
		return true, fmt.Sprintf("query %d killed\n", id), nil
	}
	return false, "", nil
}

// renderQueries draws SHOW QUERIES' two tables: running queries with live
// progress, then the completed history (newest first).
func renderQueries(active []telemetry.QuerySnapshot, history []telemetry.QueryRecord) string {
	var b strings.Builder
	fmt.Fprintf(&b, "running (%d):\n", len(active))
	if len(active) > 0 {
		fmt.Fprintf(&b, "  %-5s %-9s %-10s %-14s %-12s %-9s %-10s %s\n",
			"id", "phase", "elapsed", "ops", "pairs", "cpu", "bytes", "query")
		for _, q := range active {
			p := q.Progress
			state := q.Phase
			if q.Killed {
				state = "killed"
			}
			fmt.Fprintf(&b, "  %-5d %-9s %-10s %-14s %-12d %-9s %-10s %s\n",
				q.ID, state, fmt.Sprintf("%.1fms", q.ElapsedMs),
				fmt.Sprintf("%d/%d run %d", p.OpsDone, p.OpsTotal, p.OpsRunning),
				q.Cost.Pairs, fmt.Sprintf("%.1fms", q.Cost.CPUMs),
				costBytes(q.Cost.TotalBytes()), oneLine(q.Query))
		}
	}
	fmt.Fprintf(&b, "history (%d, newest first):\n", len(history))
	if len(history) > 0 {
		fmt.Fprintf(&b, "  %-5s %-7s %-10s %-8s %-9s %-10s %s\n",
			"id", "status", "duration", "rows", "cpu", "bytes", "query")
		for _, q := range history {
			detail := oneLine(q.Query)
			if q.Error != "" {
				detail += "  (" + q.Error + ")"
			}
			fmt.Fprintf(&b, "  %-5d %-7s %-10s %-8d %-9s %-10s %s\n",
				q.ID, q.Status, fmt.Sprintf("%.1fms", q.DurationMs), q.Rows,
				fmt.Sprintf("%.1fms", q.Cost.CPUMs), costBytes(q.Cost.TotalBytes()), detail)
		}
	}
	return b.String()
}

// costBytes renders an attributed byte total human-readably for the table.
func costBytes(n int64) string {
	f := float64(n)
	for _, u := range []string{"B", "KiB", "MiB", "GiB"} {
		if f < 1024 || u == "GiB" {
			if u == "B" {
				return fmt.Sprintf("%.0f%s", f, u)
			}
			return fmt.Sprintf("%.1f%s", f, u)
		}
		f /= 1024
	}
	return fmt.Sprintf("%d", n)
}

// oneLine collapses a query's text onto one row, truncated for the table.
func oneLine(q string) string {
	q = strings.Join(strings.Fields(q), " ")
	if q == "" {
		return "<unnamed>"
	}
	const max = 60
	if len(q) > max {
		return q[:max-1] + "…"
	}
	return q
}
