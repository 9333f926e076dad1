package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"
)

// The parameter stream is a pure function of (seed, client): equal inputs
// give equal streams, a different client or seed gives a different one, and
// a pooled workload's pool is the same for every client and seed.
func TestParamGenIsPureFunctionOfSeedAndClient(t *testing.T) {
	draw := func(w *workload, seed int64, client int) []int64 {
		g := newParamGen(w, 24000, seed, client)
		out := make([]int64, 64)
		for i := range out {
			out[i] = g.next()
		}
		return out
	}
	for _, w := range workloads {
		a, b := draw(w, 7, 0), draw(w, 7, 0)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: same (seed, client) gave different streams", w.Name)
		}
		if reflect.DeepEqual(a, draw(w, 7, 1)) {
			t.Errorf("%s: clients 0 and 1 share a stream", w.Name)
		}
		if reflect.DeepEqual(a, draw(w, 8, 0)) {
			t.Errorf("%s: seeds 7 and 8 share a stream", w.Name)
		}
		for _, lo := range a {
			if lo < idBase || lo+max(w.Span, 1) > idBase+24000 {
				t.Fatalf("%s: lo=%d with span %d leaves the id space", w.Name, lo, w.Span)
			}
		}
		if w.Pool == 0 {
			continue
		}
		p0, p1 := newParamGen(w, 24000, 7, 0).pool, newParamGen(w, 24000, 8, 1).pool
		if len(p0) != w.Pool || !reflect.DeepEqual(p0, p1) {
			t.Errorf("%s: pool differs between clients or seeds: %v vs %v", w.Name, p0, p1)
		}
		distinct := map[int64]bool{}
		for _, lo := range a {
			distinct[lo] = true
		}
		if len(distinct) > w.Pool {
			t.Errorf("%s: %d distinct values from a pool of %d", w.Name, len(distinct), w.Pool)
		}
	}
}

// tailPercentile reports the highest ladder percentile with at least ten
// samples beyond it.
func TestTailPercentilePicksHighestSupported(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{10, 50}, {39, 50}, {40, 75}, {99, 75}, {100, 90}, {199, 90}, {200, 95}, {345, 95}, {1000, 99}, {10000, 99.9}} {
		xs := make([]float64, c.n)
		for i := range xs {
			xs[i] = float64(i)
		}
		p, v := tailPercentile(xs)
		if p != c.want {
			t.Errorf("n=%d: picked p%g, want p%g", c.n, p, c.want)
		}
		if beyond := float64(c.n) * (100 - p) / 100; p > 50 && beyond < 10-1e-9 {
			t.Errorf("n=%d: p%g leaves only %.1f samples beyond it", c.n, p, beyond)
		}
		if want := quantile(xs, p/100); v != want {
			t.Errorf("n=%d: value %g, want %g", c.n, v, want)
		}
	}
	if p, v := tailPercentile(nil); p != 50 || !math.IsNaN(v) {
		t.Errorf("empty input: p%g %g, want p50 NaN", p, v)
	}
}

// A negative self time is clamped and reported, never returned as-is.
func TestSelfTimeNeverGoesNegativeSilently(t *testing.T) {
	if self, deficit := selfTime(10, 3, 4); self != 3 || deficit != 0 {
		t.Errorf("selfTime(10,3,4) = %g, %g", self, deficit)
	}
	if self, deficit := selfTime(5, 4, 3); self != 0 || deficit != 2 {
		t.Errorf("selfTime(5,4,3) = %g, %g; want 0 with a deficit of 2", self, deficit)
	}
	table := selfTimeTable(10, 12, 0, 0.1, 11, 9, 1, 5, 2)
	var flagged []string
	for _, r := range table {
		if r.SelfMs < 0 || r.Share < 0 {
			t.Errorf("row %s is negative: %+v", r.Layer, r)
		}
		if r.DeficitMs > 0 {
			flagged = append(flagged, r.Layer)
		}
	}
	if !reflect.DeepEqual(flagged, []string{"client"}) {
		t.Errorf("flagged rows %v, want [client] (session 12 ms inside client 10 ms)", flagged)
	}
}

// A client's rate does not depend on where the window's edges fall between
// two completions.
func TestRatesIgnoreWindowEdges(t *testing.T) {
	var cl clientLoop
	for i := 0; i < 29; i++ { // one completion every 100 ms, 50 rows each, first at 80 ms
		cl.samples = append(cl.samples, sample{endMs: 80 + 100*float64(i), latencyMs: 100, rows: 50})
	}
	qps, rowsPerS := cl.rates(3 * time.Second)
	if math.Abs(qps-10) > 1e-9 || math.Abs(rowsPerS-500) > 1e-9 {
		t.Errorf("rates = %g queries/s, %g rows/s; want 10 and 500", qps, rowsPerS)
	}
	cl.samples = cl.samples[:1]
	if qps, _ := cl.rates(2 * time.Second); qps != 0.5 {
		t.Errorf("a single completion in 2 s gives %g queries/s, want 0.5", qps)
	}
}

func TestCompareMarksSpreadAndRegression(t *testing.T) {
	set := func(p50, qps float64) []runResult {
		return []runResult{{Workload: "expand_miss", Metrics: map[string]float64{
			"latency_p50_ms": p50, "throughput_qps": qps, "rows_per_s": qps, "setup_s": 1, "failed_share": 0}}}
	}
	var out bytes.Buffer
	if n := compareSides(&out, [][]runResult{set(100, 20)}, [][]runResult{set(108, 19)}, false); n != 0 {
		t.Errorf("8%% slower counted %d pairs beyond bound:\n%s", n, out.String())
	}
	out.Reset()
	if n := compareSides(&out, [][]runResult{set(100, 20)}, [][]runResult{set(130, 20)}, false); n != 1 || !strings.Contains(out.String(), "WORSE") {
		t.Errorf("30%% slower p50: %d pairs beyond bound, want 1 marked WORSE:\n%s", n, out.String())
	}
	out.Reset()
	noisy := [][]runResult{set(100, 20), set(135, 20)}
	if n := compareSides(&out, noisy, [][]runResult{set(101, 20)}, false); n != 1 || !strings.Contains(out.String(), "unresolved") {
		t.Errorf("side a spreads 30%%: %d pairs beyond bound, want 1 marked unresolved:\n%s", n, out.String())
	}
	out.Reset()
	if n := compareSides(&out, [][]runResult{set(100, 20)}, [][]runResult{set(70, 20)}, true); n != 1 || !strings.Contains(out.String(), "unresolved") {
		t.Errorf("same code 30%% apart: %d pairs beyond bound, want 1 marked unresolved:\n%s", n, out.String())
	}
}

// BENCHMARK.json and the code name the same workloads and metrics.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in code", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.Name || spec.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %q, code has %q", i, spec.Workloads[i].Name, w.Name)
		}
		if len(w.Why) > 200 {
			t.Errorf("%s: why is %d characters, the contract allows 200", w.Name, len(w.Why))
		}
	}
	if len(spec.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in code", len(spec.EndToEnd), len(endToEnd))
	}
	for i, d := range endToEnd {
		e := spec.EndToEnd[i]
		if e.Name != d.Name || e.Unit != d.Unit || e.Better != d.Better || e.Bound != d.Bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %+v, code has %+v", i, e, d)
		}
	}
	var fromSpec, fromCode []string
	for _, p := range spec.PerLayer {
		fromSpec = append(fromSpec, p.Name+" "+p.Unit)
	}
	for _, m := range perLayer {
		fromCode = append(fromCode, m.Name+" "+m.Unit)
	}
	sort.Strings(fromSpec)
	sort.Strings(fromCode)
	if !reflect.DeepEqual(fromSpec, fromCode) {
		t.Errorf("per-layer metrics differ:\nBENCHMARK.json %v\ncode           %v", fromSpec, fromCode)
	}
}

func smokeOptions(t *testing.T) options {
	if testing.Short() {
		t.Skip("generates graphs and serves them")
	}
	return options{seed: defaultSeed, trace: true, outDir: t.TempDir()}.smoked()
}

// -smoke drives the whole suite end to end on tiny graphs: for all five
// workloads the set-ups, the output check against the baseline engine, the
// timed segments, the idle-state checks and the traced pass, then the
// result file.
func TestSmokeSuite(t *testing.T) {
	opts := smokeOptions(t)
	var out bytes.Buffer
	if code := suite(&out, opts, 1); code != 0 {
		t.Fatalf("suite exit code %d\n%s", code, out.String())
	}
	files, err := filepath.Glob(filepath.Join(opts.outDir, "result_*_1.json"))
	if err != nil || len(files) != 1 {
		t.Fatalf("result files %v (%v)", files, err)
	}
	res, err := readResultFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	if res.Claim != nil || len(res.Sets) != 1 || len(res.Sets[0]) != len(workloads) || res.Host.Clients != numClients {
		t.Fatalf("result file: claim %v, %d sets, host %+v", res.Claim, len(res.Sets), res.Host)
	}
	for i, r := range res.Sets[0] {
		if r.Workload != workloads[i].Name || r.Failed != 0 || r.Trace == nil || len(r.Setups) != setupRuns {
			t.Errorf("%s: failed=%d (%s), trace=%v, %d set-ups", r.Workload, r.Failed, r.FirstErr, r.Trace != nil, len(r.Setups))
			continue
		}
		for _, d := range endToEnd {
			if !(r.Metrics[d.Name] > 0) {
				t.Errorf("%s: %s = %g", r.Workload, d.Name, r.Metrics[d.Name])
			}
			if !strings.Contains(out.String(), d.Name) {
				t.Errorf("suite output never names %s", d.Name)
			}
		}
		if len(r.Trace.Metrics) != len(perLayer) || r.Trace.Samples < minTraceSamples {
			t.Errorf("%s: %d per-layer metrics from %d samples", r.Workload, len(r.Trace.Metrics), r.Trace.Samples)
		}
		if _, err := os.Stat(filepath.Join(opts.outDir, "trace_"+r.Workload+".json")); err != nil {
			t.Error(err)
		}
	}
	var cmp bytes.Buffer
	if code := compareFiles(&cmp, files[0], files[0]); code != 0 {
		t.Errorf("a result file compared with itself exits %d\n%s", code, cmp.String())
	}
}

// With -workload the last line of standard output is the driver's JSON
// object: exactly the end-to-end metrics with --trace 0, exactly the
// per-layer metrics with --trace 1.
func TestDriverLine(t *testing.T) {
	opts := smokeOptions(t)
	for _, trace := range []bool{false, true} {
		opts.trace = trace
		var out bytes.Buffer
		if code := driverRun(&out, byName("point_lookup"), opts); code != 0 {
			t.Fatalf("trace=%v: exit code %d\n%s", trace, code, out.String())
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var res map[string]json.RawMessage
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil || len(res) != 4 {
			t.Fatalf("trace=%v: last line is not the four-key JSON result (%v): %s", trace, err, lines[len(lines)-1])
		}
		var correct bool
		var attempted, failed int
		var metrics map[string]struct {
			Value float64
			Unit  string
		}
		for key, dst := range map[string]any{"correct": &correct, "attempted": &attempted, "failed": &failed, "metrics": &metrics} {
			if err := json.Unmarshal(res[key], dst); err != nil {
				t.Fatalf("trace=%v: key %q: %v", trace, key, err)
			}
		}
		if !correct || failed != 0 || attempted < 1 {
			t.Errorf("trace=%v: correct=%v attempted=%d failed=%d\n%s", trace, correct, attempted, failed, out.String())
		}
		want := map[string]string{}
		for _, d := range endToEnd {
			want[d.Name] = d.Unit
		}
		if trace {
			want = map[string]string{}
			for _, m := range perLayer {
				want[m.Name] = m.Unit
			}
		}
		if len(metrics) != len(want) {
			t.Errorf("trace=%v: %d metrics, want %d", trace, len(metrics), len(want))
		}
		for name, unit := range want {
			if m, ok := metrics[name]; !ok || m.Unit != unit || math.IsNaN(m.Value) {
				t.Errorf("trace=%v: metric %s = %+v (present %v), want unit %s", trace, name, m, ok, unit)
			}
		}
	}
}
