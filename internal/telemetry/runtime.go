package telemetry

import (
	"math"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sync"
)

// Runtime-metrics bridge: publishes the Go runtime's own view of the
// process — goroutines, heap, GC — through the existing Prometheus
// exposition, plus a vs_build_info gauge identifying the binary. Each of
// the five families reads only its own runtime/metrics sample when the
// scrape evaluates it (a cheap read; no stop-the-world), so one /metrics
// scrape makes five single-sample reads and shows engine counters and
// runtime health side by side.

// runtimeSampleNames are the runtime/metrics keys the bridge reads, in the
// order of the sample slice below.
var runtimeSampleNames = []string{
	"/sched/goroutines:goroutines",
	"/memory/classes/heap/objects:bytes",
	"/memory/classes/total:bytes",
	"/gc/cycles/total:gc-cycles",
	"/gc/pauses:seconds",
}

// runtimeSampler holds one runtime/metrics sample per family, read under a
// lock because metrics.Read requires exclusive use of the samples it fills.
type runtimeSampler struct {
	mu      sync.Mutex
	samples []metrics.Sample
}

func newRuntimeSampler() *runtimeSampler {
	s := &runtimeSampler{samples: make([]metrics.Sample, len(runtimeSampleNames))}
	for i, n := range runtimeSampleNames {
		s.samples[i].Name = n
	}
	return s
}

// value reads the idx-th sample, and only that one, and returns it as a
// float64. Histogram-valued metrics (GC pauses) are reduced to an
// approximate sum via bucket midpoints — good enough to spot pause-time
// growth without re-implementing client histogram state.
func (s *runtimeSampler) value(idx int) float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	metrics.Read(s.samples[idx : idx+1])
	sample := s.samples[idx].Value
	switch sample.Kind() {
	case metrics.KindUint64:
		return float64(sample.Uint64())
	case metrics.KindFloat64:
		return sample.Float64()
	case metrics.KindFloat64Histogram:
		return histogramSum(sample.Float64Histogram())
	default:
		return 0
	}
}

// histogramSum approximates the sum of a runtime Float64Histogram by
// weighting each bucket's count with its midpoint (edge buckets fall back
// to their finite bound).
func histogramSum(h *metrics.Float64Histogram) float64 {
	if h == nil {
		return 0
	}
	var sum float64
	for i, count := range h.Counts {
		if count == 0 {
			continue
		}
		lo, hi := h.Buckets[i], h.Buckets[i+1]
		mid := (lo + hi) / 2
		if math.IsInf(lo, -1) {
			mid = hi
		} else if math.IsInf(hi, 1) {
			mid = lo
		}
		sum += mid * float64(count)
	}
	return sum
}

// buildInfoLabels extracts go_version and, when the binary was built from
// a VCS checkout, the revision — the vs_build_info labels.
func buildInfoLabels() Labels {
	labels := Labels{"go_version": runtime.Version()}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				labels["revision"] = s.Value
			}
		}
	}
	return labels
}

var runtimeMetricsOnce sync.Once

// RegisterRuntimeMetrics registers the runtime-metrics bridge and the
// vs_build_info gauge on the Default registry. Idempotent — every server
// constructor calls it and only the first registration takes effect.
func RegisterRuntimeMetrics() {
	runtimeMetricsOnce.Do(func() {
		registerRuntimeMetrics(Default, buildInfoLabels())
	})
}

// registerRuntimeMetrics wires the bridge into reg (split out, and the
// labels passed in, so tests can exercise it on a private registry).
func registerRuntimeMetrics(reg *Registry, buildLabels Labels) {
	s := newRuntimeSampler()
	reg.NewFuncGauge("go_goroutines",
		"Number of goroutines that currently exist.", nil,
		func() float64 { return s.value(0) })
	reg.NewFuncGauge("go_memstats_heap_objects_bytes",
		"Bytes of memory occupied by live heap objects (runtime/metrics /memory/classes/heap/objects).", nil,
		func() float64 { return s.value(1) })
	reg.NewFuncGauge("go_memstats_total_bytes",
		"Total bytes of memory mapped by the Go runtime (runtime/metrics /memory/classes/total).", nil,
		func() float64 { return s.value(2) })
	reg.NewFuncCounter("go_gc_cycles_total",
		"Completed GC cycles since process start.", nil,
		func() float64 { return s.value(3) })
	reg.NewFuncCounter("go_gc_pause_seconds_total",
		"Approximate cumulative GC stop-the-world pause time (bucket-midpoint sum of /gc/pauses:seconds).", nil,
		func() float64 { return s.value(4) })
	g := reg.NewGauge("vs_build_info",
		"Build metadata of the running binary; value is always 1.", buildLabels)
	g.Set(1)
}
