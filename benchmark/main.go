// Command benchmark is the repo's performance ledger: a single-process,
// client-observed benchmark of the VSWP serving stack over five named
// workloads, with a per-layer breakdown timed from outside. See README.md
// in this directory for every metric and workload, and ../BENCHMARK.json
// for the contract the numbers are gated by.
//
// One workload, as the benchmark driver runs it (the last line of standard
// output is the JSON result):
//
//	bash benchmark/run.sh --workload expand_miss --seed 1 --seconds 15 --trace 0
//
// The whole suite (all five timed windows, then the traced pass), twice,
// with the two sets compared against the bounds:
//
//	go run -C benchmark . -sets 2
//
// Two result files against each other:
//
//	go run -C benchmark . -compare out/result_a.json out/result_b.json
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// defaultSeed is the seed results are quoted at. (The README reserves a
// second, held-out seed for verifying claims.)
const defaultSeed = 1

// setupRuns is how many freshly set-up stacks a timed run measures: setup_s
// and every other end-to-end metric is the median over them.
const setupRuns = 5

type options struct {
	seed    int64
	seconds time.Duration
	warm    time.Duration
	trace   bool
	smoke   bool
	outDir  string
}

// smoked shrinks a run to tiny graphs and 200 ms windows: every code path
// runs, nothing is measured, and timing-derived verdicts are not enforced.
func (o options) smoked() options {
	o.smoke, o.seconds, o.warm = true, time.Second, 100*time.Millisecond
	return o
}

func main() { os.Exit(run()) }

func run() int {
	var (
		workloadName = flag.String("workload", "", "run only this workload and end with the driver's one-line JSON result (default: the whole suite)")
		seed         = flag.Int64("seed", defaultSeed, "parameter-stream seed")
		seconds      = flag.Int("seconds", 15, "timed seconds per workload, split over 5 freshly set-up stacks (1 s warm-up each); with -trace 1, the traced pass's time budget")
		trace        = flag.Int("trace", -1, "with -workload: 1 runs the traced per-layer pass in place of the timed run (default 0); without: 0 skips the traced passes (default 1)")
		sets         = flag.Int("sets", 1, "run the whole suite this many times; with 2 or more, compare the first two sets")
		compare      = flag.Bool("compare", false, "compare two result files given as arguments instead of running")
		smoke        = flag.Bool("smoke", false, "tiny graphs and sub-second windows: exercises every code path, measures nothing")
		outDir       = flag.String("out", "out", "directory for graphs, traces and result files")
	)
	flag.Parse()
	opts := options{seed: *seed, seconds: time.Duration(*seconds) * time.Second, warm: warmUp, outDir: *outDir}
	if *smoke {
		opts = opts.smoked()
	}

	switch {
	case *compare:
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare wants two result files, got %d arguments", flag.NArg()))
		}
		return compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
	case *workloadName != "":
		w := byName(*workloadName)
		if w == nil {
			fatal(fmt.Errorf("unknown workload %q (have %v)", *workloadName, workloadNames()))
		}
		opts.trace = *trace == 1
		return driverRun(os.Stdout, w, opts)
	default:
		opts.trace = *trace != 0
		return suite(os.Stdout, opts, *sets)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}

// driverRun runs one workload in one mode and ends standard output with
// the driver's JSON line. The exit code is 0 whenever a result was printed;
// the result itself says whether the outputs were correct.
func driverRun(out io.Writer, w *workload, opts options) int {
	r, err := runWorkload(w, opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	if opts.trace {
		printTrace(out, r)
		for _, m := range perLayer {
			metrics[m.Name] = value{r.Trace.Metrics[m.Name], m.Unit}
		}
	} else {
		printEndToEnd(out, r)
		for _, d := range endToEnd {
			metrics[d.Name] = value{r.Metrics[d.Name], d.Unit}
		}
	}
	line, err := json.Marshal(map[string]any{"correct": r.Failed == 0, "attempted": r.Attempted, "failed": r.Failed, "metrics": metrics})
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	fmt.Fprintf(out, "%s\n", line)
	return 0
}

// runWorkload is one workload end to end. The graph is written once; then
// the run is split into segments, each on a freshly set-up stack: cold
// set-up (timed), warm-up, a timed window of seconds/segments, and a check
// that the stack returned to its idle state. Every end-to-end metric is the
// median over the segments, because on the reference box a stack keeps
// whatever speed its memory layout gave it for as long as it lives, and
// that persistent per-stack difference is several times the noise inside
// one window. The first segment's stack also answers the output check. A
// traced run has one segment and runs the traced pass in place of the
// window.
func runWorkload(w *workload, opts options) (*runResult, error) {
	scale := w.Scale
	if opts.smoke {
		scale = w.SmokeScale
	}
	goroutines0 := goroutines()
	store, err := writeGraph(w, scale, filepath.Join(opts.outDir, "data", w.Name))
	if err != nil {
		return nil, err
	}
	r := &runResult{Workload: w.Name, Seed: opts.seed, Seconds: opts.seconds.Seconds(), Metrics: map[string]float64{}}

	segments := setupRuns
	if opts.trace {
		segments = 1
	}
	var lat, p50s, qps, rowsPerS []float64
	for i := 0; i < segments; i++ {
		st, seconds, err := coldSetup(store.Dir, w, opts.seed)
		if err != nil {
			return nil, err
		}
		r.Setups = append(r.Setups, seconds)
		r.Vertices, r.Edges = st.g.NumVertices(), st.g.NumEdges()
		// Idle means nothing reserved beyond cache residency and no
		// session: the set-up's own connection is reaped asynchronously.
		if !waitFor(func() bool { return st.svc.SessionCount() == 0 }) {
			return nil, errors.Join(fmt.Errorf("set-up session still open"), st.close())
		}
		idleBytes := st.liveBytes()

		if i == 0 {
			r.absorb(checkOutput(st, w, opts.seed))
		}
		if opts.trace {
			t, err := tracePass(st, w, opts.seed, store, opts.seconds)
			if err != nil {
				return nil, errors.Join(err, st.close())
			}
			r.Trace = t
			r.absorb(t.Attempted, t.Failed, t.FirstErr)
			if err := writeJSON(filepath.Join(opts.outDir, "trace_"+w.Name+".json"),
				map[string]any{"workload": w.Name, "seed": opts.seed, "spans": t.spans}); err != nil {
				return nil, errors.Join(err, st.close())
			}
		} else {
			load, err := runLoad(st, w, opts.seed, i*numClients, opts.warm, opts.seconds/time.Duration(segments))
			if err != nil {
				return nil, errors.Join(err, st.close())
			}
			r.absorb(load.Attempted, load.Failed, load.FirstErr)
			if len(load.Latencies) == 0 {
				r.absorb(1, 1, fmt.Sprintf("segment %d: no query completed inside the %.1f s window", i, load.Seconds))
				load.Latencies = []float64{0}
			}
			lat = append(lat, load.Latencies...)
			p50s = append(p50s, median(load.Latencies))
			qps = append(qps, load.QPS)
			rowsPerS = append(rowsPerS, load.RowsPerS)
			r.CacheHitRatio += float64(load.CacheHits) / float64(len(load.Latencies)*expandsPerQuery(st, w)) / float64(segments)
			r.CacheEvictions += load.CacheEvictions
			r.CacheEntries, r.CacheBytes = load.CacheEntries, load.CacheBytes
			r.Repeated += load.Repeated
		}

		// The stack must come back to its idle state: nothing reserved
		// beyond cache residency, no session left, and — once closed — no
		// goroutine. Each is one more attempt that can fail.
		check := func(ok bool, format string, args ...any) {
			if ok {
				r.absorb(1, 0, "")
			} else {
				r.absorb(1, 1, fmt.Sprintf(format, args...))
			}
		}
		check(waitFor(func() bool { return st.liveBytes() == idleBytes }),
			"engine holds %d live bytes after the workload, %d before", st.liveBytes(), idleBytes)
		check(waitFor(func() bool { return st.svc.SessionCount() == 0 }),
			"%d sessions still open after the workload", st.svc.SessionCount())
		if err := st.close(); err != nil {
			return nil, err
		}
		check(waitFor(func() bool { return goroutines() <= goroutines0 }),
			"%d goroutines after the workload, %d before", goroutines(), goroutines0)
	}
	if !opts.trace {
		r.Metrics["latency_p50_ms"] = median(p50s)
		r.Metrics["throughput_qps"] = median(qps)
		r.Metrics["rows_per_s"] = median(rowsPerS)
		r.Metrics["setup_s"] = median(r.Setups)
		r.SegmentP50s, r.SegmentQPS = p50s, qps
		sort.Float64s(lat)
		r.Samples = len(lat)
		r.TailPercentile, r.TailMs = tailPercentile(lat)
	}
	return r, nil
}

// suite runs every workload's timed window, then (unless skipped) every
// workload's traced pass, n times over; prints every metric; writes the
// result file; and with two or more sets compares the first two. The exit
// code is non-zero on any output-check failure or any pair beyond bound.
func suite(out io.Writer, opts options, n int) int {
	file := &resultFile{Host: readHost(), Seed: opts.seed}
	fmt.Fprintf(out, "host: %d CPUs (GOMAXPROCS %d), %s, %s, git %s; seed %d\n",
		file.Host.NProc, file.Host.GOMAXPROCS, file.Host.CPUModel, file.Host.GoVersion, file.Host.GitSHA, opts.seed)
	code := 0
	for s := 0; s < n; s++ {
		if n > 1 {
			fmt.Fprintf(out, "\n=== set %d of %d ===\n", s+1, n)
		}
		var set []runResult
		timed := opts
		timed.trace = false
		for _, w := range workloads {
			r, err := runWorkload(w, timed)
			if err != nil {
				fatal(fmt.Errorf("%s: %w", w.Name, err))
			}
			printEndToEnd(out, r)
			set = append(set, *r)
		}
		for i, w := range workloads {
			if !opts.trace {
				break
			}
			r, err := runWorkload(w, opts)
			if err != nil {
				fatal(fmt.Errorf("%s: %w", w.Name, err))
			}
			printTrace(out, r)
			set[i].Trace = r.Trace
			set[i].absorb(r.Attempted, r.Failed, r.FirstErr)
			if unattributed := r.Trace.Metrics["trace.unattributed_share"]; unattributed > 0.15 && !opts.smoke {
				fmt.Fprintf(out, "  unattributed_share %.3f exceeds 0.15\n", unattributed)
				code = 1
			}
		}
		for i := range set {
			if set[i].Failed > 0 {
				code = 1
			}
		}
		file.Sets = append(file.Sets, set)
	}
	path := filepath.Join(opts.outDir, fmt.Sprintf("result_%s_%d.json", file.Host.GitSHA, opts.seed))
	if err := writeJSON(path, file); err != nil {
		fatal(err)
	}
	fmt.Fprintf(out, "\nresults written to %s\n", path)
	if n >= 2 {
		fmt.Fprintf(out, "\nset 1 (a) against set 2 (b), same code:")
		if compareSides(out, file.Sets[:1], file.Sets[1:2], true) > 0 {
			code = 1
		}
	}
	if code != 0 {
		fmt.Fprintln(out, "\nFAILED: see the failures, unresolved pairs or unattributed shares above")
	}
	return code
}

func compareFiles(out io.Writer, pathA, pathB string) int {
	a, err := readResultFile(pathA)
	if err != nil {
		fatal(err)
	}
	b, err := readResultFile(pathB)
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(out, "a: %s (git %s, seed %d, %d sets, %s)\nb: %s (git %s, seed %d, %d sets, %s)\n",
		pathA, a.Host.GitSHA, a.Seed, len(a.Sets), a.Host.CPUModel, pathB, b.Host.GitSHA, b.Seed, len(b.Sets), b.Host.CPUModel)
	if compareSides(out, a.Sets, b.Sets, false) > 0 {
		return 1
	}
	return 0
}
