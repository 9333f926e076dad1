package telemetry

import (
	"encoding/json"
	"io"
	"sort"
	"time"
)

// Chrome trace-event export: serializes a finished span tree in the Trace
// Event Format consumed by chrome://tracing and Perfetto. Every span becomes
// one complete ("X") event; timestamps are microseconds relative to the root
// span's start so traces from different queries align at zero.
//
// The engine runs sibling expand operators concurrently, so sibling spans
// may overlap in wall time. Chrome renders same-tid events by time nesting
// and draws partial overlaps incorrectly, so the exporter assigns each span
// a lane (tid) such that spans sharing a lane are either disjoint or fully
// nested — a greedy interval coloring that keeps sequential queries on one
// lane and splits only genuinely concurrent operators onto extra lanes.

// ChromeTraceEvent is one event in the Trace Event Format JSON.
type ChromeTraceEvent struct {
	Name string `json:"name"`
	// Ph is the event phase; the exporter emits only complete events ("X").
	Ph string `json:"ph"`
	// Ts is the start timestamp in microseconds relative to the trace root.
	Ts float64 `json:"ts"`
	// Dur is the event duration in microseconds.
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// ChromeTrace is the top-level Trace Event Format document (JSON object
// form, so chrome://tracing metadata fields can ride along).
type ChromeTrace struct {
	TraceEvents     []ChromeTraceEvent `json:"traceEvents"`
	DisplayTimeUnit string             `json:"displayTimeUnit"`
}

// ChromeTraceFromSnapshot converts a finished span tree into a Trace Event
// Format document. The output is deterministic for a fixed snapshot: events
// are ordered by start time (longest first on ties, then by name), and lane
// assignment is a stable greedy coloring.
func ChromeTraceFromSnapshot(sn *SpanSnapshot) *ChromeTrace {
	doc := &ChromeTrace{
		TraceEvents:     []ChromeTraceEvent{},
		DisplayTimeUnit: "ms",
	}
	if sn == nil {
		return doc
	}
	rootStart := sn.StartUnixNs

	type flatSpan struct {
		sn       *SpanSnapshot
		ts, dur  float64 // microseconds from root start
		endNs    int64
		preOrder int
	}
	var flat []*flatSpan
	sn.Walk(func(s *SpanSnapshot) {
		flat = append(flat, &flatSpan{
			sn:       s,
			ts:       float64(s.StartUnixNs-rootStart) / float64(time.Microsecond),
			dur:      s.DurationMs * 1000,
			endNs:    s.EndUnixNs(),
			preOrder: len(flat),
		})
	})
	// Sort by start ascending; on equal starts the longer (enclosing) span
	// first so containment placement sees ancestors before descendants;
	// pre-order as the final tiebreak keeps the output stable.
	sort.SliceStable(flat, func(i, j int) bool {
		a, b := flat[i], flat[j]
		if a.sn.StartUnixNs != b.sn.StartUnixNs {
			return a.sn.StartUnixNs < b.sn.StartUnixNs
		}
		if a.endNs != b.endNs {
			return a.endNs > b.endNs
		}
		return a.preOrder < b.preOrder
	})

	// Greedy lane coloring. Each lane keeps a stack of open interval end
	// times; a span joins the first lane where, after expiring intervals
	// that ended before it starts, it is either alone or fully contained
	// by the lane's innermost open interval.
	var lanes [][]int64
	for _, fs := range flat {
		placed := -1
		for li := range lanes {
			stack := lanes[li]
			for len(stack) > 0 && stack[len(stack)-1] <= fs.sn.StartUnixNs {
				stack = stack[:len(stack)-1]
			}
			lanes[li] = stack
			if len(stack) == 0 || stack[len(stack)-1] >= fs.endNs {
				lanes[li] = append(stack, fs.endNs)
				placed = li
				break
			}
		}
		if placed < 0 {
			lanes = append(lanes, []int64{fs.endNs})
			placed = len(lanes) - 1
		}
		doc.TraceEvents = append(doc.TraceEvents, ChromeTraceEvent{
			Name: fs.sn.Name,
			Ph:   "X",
			Ts:   fs.ts,
			Dur:  fs.dur,
			Pid:  1,
			Tid:  placed + 1,
			Args: fs.sn.Attrs,
		})
	}
	return doc
}

// WriteChromeTrace serializes the span tree as Trace Event Format JSON —
// the payload of vsquery -trace-out and the server's "trace":"chrome" mode.
func WriteChromeTrace(w io.Writer, sn *SpanSnapshot) error {
	enc := json.NewEncoder(w)
	return enc.Encode(ChromeTraceFromSnapshot(sn))
}
