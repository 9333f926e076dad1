package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// metricDef is one end-to-end metric: its unit, which direction is better,
// and the share of the reference median it may worsen by before a change
// counts as a regression. BENCHMARK.json carries the same list.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Bound  float64
}

var endToEnd = []metricDef{
	{"latency_p50_ms", "ms", "lower", 0.25},
	{"throughput_qps", "queries/s", "higher", 0.25},
	{"rows_per_s", "rows/s", "higher", 0.25},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer names every per-layer metric the traced pass reports, with its
// unit, in report order: outermost layer first.
var perLayer = []struct{ Name, Unit string }{
	{"client.query_ms", "ms"}, {"server.http_query_ms", "ms"},
	{"wire.encode_ns_per_row", "ns/row"}, {"wire.decode_ns_per_row", "ns/row"}, {"wire.bytes_per_row", "bytes/row"},
	{"session.run_fetch_ms", "ms"},
	{"cypher.parse_us", "us"}, {"cypher.bind_plan_us", "us"}, {"cypher.run_ms", "ms"},
	{"engine.match_ms", "ms"}, {"engine.foreach_ms", "ms"},
	{"exec.cache_hit_ratio", "ratio"}, {"exec.cache_evictions", "count"},
	{"planner.build_us", "us"},
	{"vexpand.expand_ms", "ms"}, {"vexpand.pairs", "count"}, {"vexpand.matrix_bytes", "bytes"},
	{"mintersect.run_ms", "ms"}, {"mintersect.intersections", "count"}, {"mintersect.tuples", "count"},
	{"storage.write_ms", "ms"}, {"storage.open_ms", "ms"}, {"storage.bytes_on_disk", "bytes"},
	{"trace.unattributed_share", "ratio"}, {"trace.overhead_share", "ratio"},
}

// runResult is one workload's outcome in one set.
type runResult struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Seconds  float64 `json:"seconds"`
	Vertices int     `json:"vertices"`
	Edges    int     `json:"edges"`
	// Metrics holds the end-to-end metrics (timed window, tracing off) and
	// failed_share.
	Metrics map[string]float64 `json:"metrics,omitempty"`
	// Diagnostics are printed but never gated (see the README on why the
	// tail latency is one of them).
	TailPercentile float64   `json:"latency_tail_percentile,omitempty"`
	TailMs         float64   `json:"latency_tail_ms,omitempty"`
	Samples        int       `json:"latency_samples,omitempty"`
	Setups         []float64 `json:"setup_samples_s,omitempty"`
	SegmentP50s    []float64 `json:"segment_latency_p50_ms,omitempty"`
	SegmentQPS     []float64 `json:"segment_throughput_qps,omitempty"`
	CacheHitRatio  float64   `json:"window_cache_hit_ratio"`
	CacheEvictions int64     `json:"window_cache_evictions"`
	CacheEntries   int       `json:"cache_entries"`
	CacheBytes     int64     `json:"cache_bytes"`
	Repeated       int       `json:"repeated_params,omitempty"`

	Attempted int    `json:"attempted"`
	Failed    int    `json:"failed"`
	FirstErr  string `json:"first_error,omitempty"`

	Trace *traceResult `json:"trace,omitempty"`
}

// absorb adds a step's attempts and failures, keeps the first failure's
// message, and brings failed_share up to date.
func (r *runResult) absorb(attempted, failed int, firstErr string) {
	r.Attempted += attempted
	r.Failed += failed
	if r.FirstErr == "" {
		r.FirstErr = firstErr
	}
	r.Metrics["failed_share"] = float64(r.Failed) / float64(r.Attempted)
}

// hostInfo says where a result file was measured.
type hostInfo struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	GitSHA     string `json:"git_sha"`
	Clients    int    `json:"clients"`
}

func readHost() hostInfo {
	h := hostInfo{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		CPUModel: "unknown", GitSHA: "nogit", Clients: numClients}
	if raw, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	// A checkout without git history (the benchmark driver's) keeps "nogit".
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		h.GitSHA = strings.TrimSpace(string(out))
	}
	return h
}

// resultFile is what -sets writes and -compare reads.
type resultFile struct {
	Host hostInfo `json:"host"`
	Seed int64    `json:"seed"`
	// Claim is always null: the ledger measures, it does not claim.
	Claim *string       `json:"claim"`
	Sets  [][]runResult `json:"sets"`
}

func writeJSON(path string, v any) error {
	raw, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

func readResultFile(path string) (*resultFile, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(raw, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// printEndToEnd prints one workload's timed-window outcome, every metric by
// name with its unit.
func printEndToEnd(out io.Writer, r *runResult) {
	fmt.Fprintf(out, "\n%s  seed=%d  |V|=%d |E|=%d  %d clients, %.0f s window\n", r.Workload, r.Seed, r.Vertices, r.Edges, numClients, r.Seconds)
	for _, d := range endToEnd {
		fmt.Fprintf(out, "  %-22s %14.4f %s\n", d.Name, r.Metrics[d.Name], d.Unit)
	}
	fmt.Fprintf(out, "  %-22s %14.4f ratio  (%d failed of %d attempted)\n", "failed_share", r.Metrics["failed_share"], r.Failed, r.Attempted)
	fmt.Fprintf(out, "  %-22s %14.4f ms     (diagnostic, not gated: %d samples)\n", fmt.Sprintf("latency_p%g_ms", r.TailPercentile), r.TailMs, r.Samples)
	fmt.Fprintf(out, "  per-segment latency_p50_ms %.4f, throughput_qps %.2f, setup_s %.3f\n", r.SegmentP50s, r.SegmentQPS, r.Setups)
	fmt.Fprintf(out, "  cache over the window: hit ratio %.3f, %d evictions, %d entries / %.1f MiB resident; %d repeated params\n",
		r.CacheHitRatio, r.CacheEvictions, r.CacheEntries, float64(r.CacheBytes)/(1<<20), r.Repeated)
	if r.FirstErr != "" {
		fmt.Fprintf(out, "  FIRST FAILURE: %s\n", r.FirstErr)
	}
}

// printTrace prints one workload's per-layer metrics and self-time table.
func printTrace(out io.Writer, r *runResult) {
	t := r.Trace
	path := "materialized"
	if t.Streaming {
		path = "streamed"
	}
	fmt.Fprintf(out, "\n%s  traced pass: 1 client, %d samples per layer, medians; %s path, vexpand kernel %s\n", r.Workload, t.Samples, path, t.Kernel)
	for _, m := range perLayer {
		fmt.Fprintf(out, "  %-26s %16.4f %s\n", m.Name, t.Metrics[m.Name], m.Unit)
	}
	client := t.Metrics["client.query_ms"]
	fmt.Fprintf(out, "  self time by layer, against client.query_ms = %.4f ms:\n", client)
	var sum float64
	for _, row := range t.Table {
		flag := ""
		if row.DeficitMs > 0 {
			flag = fmt.Sprintf("  NEGATIVE by %.4f ms, clamped", row.DeficitMs)
		}
		fmt.Fprintf(out, "    %-12s %12.4f ms %6.1f%%%s\n", row.Layer, row.SelfMs, 100*row.Share, flag)
		sum += row.SelfMs
	}
	fmt.Fprintf(out, "    %-12s %12.4f ms %6.1f%%   unattributed_share %.4f, trace_overhead_share %.4f\n", "sum", sum, 100*sum/client,
		t.Metrics["trace.unattributed_share"], t.Metrics["trace.overhead_share"])
	fmt.Fprintf(out, "  cache hit ratio observed %.3f, predicted by the harness model %.3f\n", t.Metrics["exec.cache_hit_ratio"], t.PredictedHitRatio)
	verdict := "ok"
	if !t.SizingOK {
		verdict = "FAIL"
	}
	fmt.Fprintf(out, "  sizing guard %s: %s\n", verdict, t.SizingGuard)
	if t.FirstErr != "" {
		fmt.Fprintf(out, "  FIRST FAILURE: %s\n", t.FirstErr)
	}
}

// worsening is how far b is worse than a, as a share of a (negative when b
// is better).
func worsening(d metricDef, a, b float64) float64 {
	if d.Better == "lower" {
		return (b - a) / a
	}
	return (a - b) / a
}

// spread is the distance between a side's own sets as a share of their
// median: quartile distance with four or more sets, the full range with
// two or three, unknown (NaN) with one.
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) >= 4 {
		return (quantile(s, 0.75) - quantile(s, 0.25)) / quantile(s, 0.5)
	}
	return (s[len(s)-1] - s[0]) / quantile(s, 0.5)
}

// compareSides prints, per (metric, workload), each side's median, the
// relative difference and the bound, and returns how many end-to-end pairs
// are beyond their bound. A pair whose own run-to-run spread exceeds the
// bound is "unresolved": the benchmark cannot tell a change from noise
// there. sameCode marks the two sides as runs of one binary (-sets 2), where
// any difference beyond the bound is spread by definition.
func compareSides(out io.Writer, a, b [][]runResult, sameCode bool) int {
	values := func(sets [][]runResult, workload, metric string) []float64 {
		var xs []float64
		for _, set := range sets {
			for i := range set {
				if v, ok := set[i].Metrics[metric]; ok && set[i].Workload == workload {
					xs = append(xs, v)
				}
			}
		}
		return xs
	}
	beyond := 0
	fmt.Fprintf(out, "\n%-15s %-16s %14s %14s %9s %7s  %s\n", "workload", "metric", "a", "b", "b vs a", "bound", "verdict")
	for _, name := range workloadNames() {
		for _, d := range endToEnd {
			xa, xb := values(a, name, d.Name), values(b, name, d.Name)
			if len(xa) == 0 || len(xb) == 0 {
				continue
			}
			ma, mb := median(xa), median(xb)
			worse := worsening(d, ma, mb)
			verdict := "ok"
			switch sa, sb := spread(xa), spread(xb); {
			case sa > d.Bound || sb > d.Bound || (sameCode && math.Abs(worse) > d.Bound):
				verdict = "unresolved (run-to-run spread exceeds the bound)"
				beyond++
			case worse > d.Bound:
				verdict = "WORSE beyond bound"
				beyond++
			}
			fmt.Fprintf(out, "%-15s %-16s %14.4f %14.4f %+8.1f%% %6.0f%%  %s\n", name, d.Name, ma, mb, 100*(mb-ma)/ma, 100*d.Bound, verdict)
		}
		fa, fb := values(a, name, "failed_share"), values(b, name, "failed_share")
		if len(fa) > 0 && len(fb) > 0 && median(fb) > median(fa) {
			fmt.Fprintf(out, "%-15s %-16s %14.4f %14.4f  any increase fails\n", name, "failed_share", median(fa), median(fb))
			beyond++
		}
	}
	return beyond
}
