// Time-series telemetry store: a fixed-size ring that snapshots every
// instrument of a Registry at a configurable interval, so the point-in-time
// /metrics exposition gains a history — QPS over the last five minutes, the
// p95 of a stage latency histogram over a window, accountant occupancy as a
// curve rather than a number.
//
// Samples are delta-encoded: each column stores the change since the
// previous tick plus the latest raw value, so any suffix window decodes in
// one backward pass and a window delta is a plain sum of ring entries.
// The sample path performs no allocation — columns and rings are built on
// the cold path when instruments register — and the whole store's memory is
// fixed at (columns × capacity × 8 bytes), reservable against the engine's
// memory Accountant via the Budget option.
//
// Surfaces: GET /debug/timeseries (JSON window with rate/percentile
// reductions), GET /debug/dash (SSE deltas), cmd/vstop (polling client),
// and the threshold watchers in alerts.go.
package telemetry

import (
	"math"
	"sort"
	"sync"
	"time"
)

// DefaultSampleInterval is the tick period of a collector started without
// an explicit interval: one sample per second keeps a five-minute window in
// the default 300-sample ring.
const DefaultSampleInterval = time.Second

// DefaultSampleCapacity is the ring capacity of a store built with
// capacity 0: 300 one-second samples = a five-minute window.
const DefaultSampleCapacity = 300

// ByteBudget is the slice of exec.Accountant the store needs to bound its
// memory: reserve on growth, release on Close. A nil budget meters nothing.
type ByteBudget interface {
	Reserve(n int64) error
	Release(n int64)
}

// colKind tags how a column reads its current value.
type colKind int8

const (
	colCounter colKind = iota
	colGauge
	colFloatCounter
	colHistBucket
	colHistCount
	colHistSum
	colFunc // FuncGauge / FuncCounter, evaluated on the cold pre-pass
)

// tsColumn is one scalar tracked over time: a counter, a gauge, or one cell
// of an exploded histogram. ring holds delta-encoded samples (value minus
// the previous sample's value); last holds the raw value at the newest
// sample, so decoding walks backward from last subtracting deltas.
type tsColumn struct {
	kind colKind
	c    *Counter
	g    *Gauge
	fc   *FloatCounter
	h    *Histogram
	idx  int // bucket index for colHistBucket

	scratch float64 // colFunc: value written by the cold pre-pass
	last    float64
	ring    []float64
}

// load reads the column's current raw value. Func-backed columns return
// the scratch the cold pre-pass wrote, keeping arbitrary callbacks out of
// the allocation-free sample path.
//
//vs:hotpath
func (c *tsColumn) load() float64 {
	switch c.kind {
	case colCounter:
		return float64(c.c.v.Load())
	case colGauge:
		return float64(c.g.v.Load())
	case colFloatCounter:
		return math.Float64frombits(c.fc.bits.Load())
	case colHistBucket:
		counts := c.h.counts
		if uint(c.idx) < uint(len(counts)) {
			return float64(counts[c.idx].Load())
		}
		return 0
	case colHistCount:
		return float64(c.h.count.Load())
	case colHistSum:
		return math.Float64frombits(c.h.sumBits.Load())
	default:
		return c.scratch
	}
}

// histGroup ties the exploded columns of one histogram back together for
// percentile reductions.
type histGroup struct {
	name    string
	bounds  []float64
	buckets []*tsColumn // len(bounds)+1, +Inf last
	count   *tsColumn
	sum     *tsColumn
}

// scalarSeries is one exported series: a counter/gauge column under its
// exposition name.
type scalarSeries struct {
	name string
	col  *tsColumn
}

// TimeSeries is the fixed-size sample ring over one Registry. Construct
// with NewTimeSeries, feed with Start (background ticker) or Tick (manual,
// for tests), read with Summary / Rate / Quantile.
type TimeSeries struct {
	reg      *Registry
	interval time.Duration
	capacity int
	budget   ByteBudget

	mu       sync.Mutex
	cols     []*tsColumn
	scalars  []scalarSeries
	hists    []*histGroup
	funcs    []funcCell
	seen     map[exposer]bool
	times    []int64 // unix ms ring, parallel to every column ring
	head     int     // next write slot
	n        int     // samples recorded, ≤ capacity
	reserved int64   // bytes reserved on budget
	watchers []*Watcher

	stopOnce sync.Once
	stop     chan struct{}
	started  bool
}

// NewTimeSeries returns a store sampling reg every interval (0 =
// DefaultSampleInterval) into a ring of capacity samples (0 =
// DefaultSampleCapacity). budget, when non-nil, is charged for the ring's
// memory as columns appear and credited back on Close.
func NewTimeSeries(reg *Registry, interval time.Duration, capacity int, budget ByteBudget) *TimeSeries {
	if interval <= 0 {
		interval = DefaultSampleInterval
	}
	if capacity <= 0 {
		capacity = DefaultSampleCapacity
	}
	ts := &TimeSeries{
		reg:      reg,
		interval: interval,
		capacity: capacity,
		budget:   budget,
		seen:     make(map[exposer]bool),
		times:    make([]int64, capacity),
		stop:     make(chan struct{}),
	}
	return ts
}

// Interval returns the configured sample period.
func (ts *TimeSeries) Interval() time.Duration { return ts.interval }

// Start launches the background sampler. Idempotent: only the first call
// starts a goroutine. Stop it with Close.
func (ts *TimeSeries) Start() {
	ts.mu.Lock()
	if ts.started {
		ts.mu.Unlock()
		return
	}
	ts.started = true
	ts.mu.Unlock()
	go func() {
		tick := time.NewTicker(ts.interval)
		defer tick.Stop()
		for {
			select {
			case <-ts.stop:
				return
			case now := <-tick.C:
				ts.Tick(now)
			}
		}
	}()
}

// Close stops the background sampler and releases the ring's budget
// reservation. Safe to call more than once and without Start.
func (ts *TimeSeries) Close() {
	ts.stopOnce.Do(func() { close(ts.stop) })
	ts.mu.Lock()
	if ts.reserved > 0 && ts.budget != nil {
		ts.budget.Release(ts.reserved)
		ts.reserved = 0
	}
	ts.mu.Unlock()
}

// Tick records one sample stamped now, then evaluates the attached
// watchers. The cold half syncs newly registered instruments and runs
// callback-backed gauges into scratch; the hot half (sampleLocked) only
// reads atomics into preallocated rings.
func (ts *TimeSeries) Tick(now time.Time) {
	ts.mu.Lock()
	ts.syncLocked()
	ts.evalFuncsLocked()
	ts.sampleLocked(now.UnixMilli())
	watchers := ts.watchers
	ts.mu.Unlock()
	for _, w := range watchers {
		w.Evaluate(ts, now)
	}
}

// AddWatcher attaches a watcher evaluated after every tick.
func (ts *TimeSeries) AddWatcher(w *Watcher) {
	ts.mu.Lock()
	ts.watchers = append(ts.watchers, w)
	ts.mu.Unlock()
}

// syncLocked diffs the registry against the known instrument set and
// builds columns for newcomers. Cold path: runs per tick but allocates
// only when registration grew, which in practice means the first tick.
func (ts *TimeSeries) syncLocked() {
	if ts.reg.instrumentCount() == len(ts.seen) {
		return
	}
	grown := int64(0)
	for _, ref := range ts.reg.snapshotInstruments() {
		if ts.seen[ref.inst] {
			continue
		}
		ts.seen[ref.inst] = true
		grown += ts.addColumnsLocked(ref)
	}
	if grown > 0 && ts.budget != nil {
		// A refused reservation still samples — the ring is already
		// allocated and fixed-size; the accountant meters it so operators
		// see telemetry in the same budget as matrices and cache.
		if err := ts.budget.Reserve(grown); err == nil {
			ts.reserved += grown
		}
	}
}

// addColumnsLocked creates the column(s) for one instrument and returns
// the ring bytes allocated.
func (ts *TimeSeries) addColumnsLocked(ref instrumentRef) int64 {
	newCol := func(k colKind) *tsColumn {
		c := &tsColumn{kind: k, ring: make([]float64, ts.capacity)}
		ts.cols = append(ts.cols, c)
		return c
	}
	before := len(ts.cols)
	switch inst := ref.inst.(type) {
	case *Counter:
		c := newCol(colCounter)
		c.c = inst
		ts.scalars = append(ts.scalars, scalarSeries{seriesName(ref.family, inst.labels), c})
	case *Gauge:
		c := newCol(colGauge)
		c.g = inst
		ts.scalars = append(ts.scalars, scalarSeries{seriesName(ref.family, inst.labels), c})
	case *FloatCounter:
		c := newCol(colFloatCounter)
		c.fc = inst
		ts.scalars = append(ts.scalars, scalarSeries{seriesName(ref.family, inst.labels), c})
	case *FuncGauge:
		c := newCol(colFunc)
		ts.scalars = append(ts.scalars, scalarSeries{seriesName(ref.family, inst.labels), c})
		ts.funcs = append(ts.funcs, funcCell{fn: inst.fn, col: c})
	case *FuncCounter:
		c := newCol(colFunc)
		ts.scalars = append(ts.scalars, scalarSeries{seriesName(ref.family, inst.labels), c})
		ts.funcs = append(ts.funcs, funcCell{fn: inst.fn, col: c})
	case *Histogram:
		g := &histGroup{name: seriesName(ref.family, inst.labels), bounds: inst.bounds}
		for i := 0; i <= len(inst.bounds); i++ {
			c := newCol(colHistBucket)
			c.h, c.idx = inst, i
			g.buckets = append(g.buckets, c)
		}
		g.count = newCol(colHistCount)
		g.count.h = inst
		g.sum = newCol(colHistSum)
		g.sum.h = inst
		ts.hists = append(ts.hists, g)
	}
	return int64(len(ts.cols)-before) * int64(ts.capacity) * 8
}

// funcCell pairs a callback-backed instrument with its column for the cold
// pre-pass.
type funcCell struct {
	fn  func() float64
	col *tsColumn
}

// evalFuncsLocked runs every callback-backed instrument into its column's
// scratch, ahead of the allocation-free sample pass.
func (ts *TimeSeries) evalFuncsLocked() {
	for _, f := range ts.funcs {
		f.col.scratch = f.fn()
	}
}

// sampleLocked writes one delta-encoded sample into every column ring.
// This is the per-tick hot path: atomic loads and slice stores only.
//
//vs:hotpath
func (ts *TimeSeries) sampleLocked(nowMs int64) {
	head := ts.head
	times := ts.times
	if uint(head) < uint(len(times)) {
		times[head] = nowMs
	}
	cols := ts.cols
	for i := 0; i < len(cols); i++ {
		c := cols[i]
		v := c.load()
		ring := c.ring
		if uint(head) < uint(len(ring)) {
			ring[head] = v - c.last
		}
		c.last = v
	}
	ts.head = head + 1
	if ts.head == ts.capacity {
		ts.head = 0
	}
	if ts.n < ts.capacity {
		ts.n++
	}
}

// Len returns the number of samples currently retained.
func (ts *TimeSeries) Len() int {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	return ts.n
}

// slotAt maps window position i (0 = oldest retained, n-1 = newest) to a
// ring index. Callers hold mu.
func (ts *TimeSeries) slotAt(i int) int {
	// head is one past the newest sample; oldest is head-n (mod capacity).
	idx := ts.head - ts.n + i
	if idx < 0 {
		idx += ts.capacity
	}
	return idx
}

// decodeLocked reconstructs the raw values of a column over the last m
// samples (oldest first). Callers hold mu and pass 1 ≤ m ≤ ts.n.
func (ts *TimeSeries) decodeLocked(c *tsColumn, m int) []float64 {
	out := make([]float64, m)
	v := c.last
	for i := m - 1; i >= 0; i-- {
		out[i] = v
		if i > 0 {
			v -= c.ring[ts.slotAt(ts.n-m+i)]
		}
	}
	return out
}

// windowDeltaLocked returns value(newest) − value(oldest-in-window) for a
// column over the last m samples: the sum of the newest m−1 delta entries.
// With m == 1 (or a single retained sample) it falls back to the cumulative
// raw value — the "window" is all of history. Callers hold mu.
func (ts *TimeSeries) windowDeltaLocked(c *tsColumn, m int) float64 {
	if m > ts.n {
		m = ts.n
	}
	if ts.n == 0 {
		return 0
	}
	if m <= 1 {
		return c.last
	}
	sum := 0.0
	for i := 1; i < m; i++ {
		sum += c.ring[ts.slotAt(ts.n-m+i)]
	}
	return sum
}

// windowSecondsLocked returns the wall seconds spanned by the last m
// samples (0 when fewer than two samples are retained). Callers hold mu.
func (ts *TimeSeries) windowSecondsLocked(m int) float64 {
	if m > ts.n {
		m = ts.n
	}
	if m < 2 {
		return 0
	}
	first := ts.times[ts.slotAt(ts.n-m)]
	last := ts.times[ts.slotAt(ts.n-1)]
	return float64(last-first) / 1000
}

// Rate returns the per-second rate of the named scalar series over the
// last m samples (0 = whole ring). ok is false when the series is unknown
// or fewer than two samples exist.
func (ts *TimeSeries) Rate(name string, m int) (rate float64, ok bool) {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	c := ts.scalarLocked(name)
	if c == nil {
		return 0, false
	}
	if m <= 0 || m > ts.n {
		m = ts.n
	}
	secs := ts.windowSecondsLocked(m)
	if secs <= 0 {
		return 0, false
	}
	return ts.windowDeltaLocked(c, m) / secs, true
}

// Latest returns the newest raw value of the named scalar series.
func (ts *TimeSeries) Latest(name string) (v float64, ok bool) {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	c := ts.scalarLocked(name)
	if c == nil || ts.n == 0 {
		return 0, false
	}
	return c.last, true
}

func (ts *TimeSeries) scalarLocked(name string) *tsColumn {
	for _, s := range ts.scalars {
		if s.name == name {
			return s.col
		}
	}
	return nil
}

func (ts *TimeSeries) histLocked(name string) *histGroup {
	for _, g := range ts.hists {
		if g.name == name {
			return g
		}
	}
	return nil
}

// Quantile reduces the named histogram over the last m samples (0 = whole
// ring) to its p-quantile (0 < p < 1), in the histogram's native units.
// The reduction subtracts the window-start bucket counts from the
// window-end counts, so it reflects only observations inside the window; a
// single-sample window falls back to all-of-history counts. ok is false
// for an unknown histogram, an empty ring, or a window with no
// observations.
func (ts *TimeSeries) Quantile(name string, p float64, m int) (q float64, ok bool) {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	g := ts.histLocked(name)
	if g == nil || ts.n == 0 {
		return 0, false
	}
	if m <= 0 || m > ts.n {
		m = ts.n
	}
	counts := make([]float64, len(g.buckets))
	for i, c := range g.buckets {
		counts[i] = ts.windowDeltaLocked(c, m)
	}
	return quantileFromBuckets(g.bounds, counts, p)
}

// quantileFromBuckets computes the p-quantile from per-bucket observation
// counts (non-cumulative, +Inf last) with linear interpolation inside the
// landing bucket — the same estimate Prometheus's histogram_quantile makes.
// Observations in the +Inf bucket clamp to the highest finite bound.
func quantileFromBuckets(bounds []float64, counts []float64, p float64) (float64, bool) {
	total := 0.0
	for _, c := range counts {
		total += c
	}
	if total <= 0 || p <= 0 || p >= 1 {
		return 0, false
	}
	target := p * total
	cum := 0.0
	for i, c := range counts {
		cum += c
		if cum < target || c <= 0 {
			continue
		}
		if i >= len(bounds) {
			// +Inf bucket: clamp to the highest finite bound.
			if len(bounds) == 0 {
				return 0, false
			}
			return bounds[len(bounds)-1], true
		}
		lo := 0.0
		if i > 0 {
			lo = bounds[i-1]
		}
		hi := bounds[i]
		// Position of the target within this bucket's count mass.
		frac := (target - (cum - c)) / c
		return lo + (hi-lo)*frac, true
	}
	return 0, false
}

// TimeseriesSummary is the JSON window GET /debug/timeseries serves and
// cmd/vstop consumes: decoded scalar series plus histogram reductions over
// the returned window.
type TimeseriesSummary struct {
	// IntervalMs is the configured sample period.
	IntervalMs int64 `json:"interval_ms"`
	// Samples is the number of samples in this window (= len(TimesUnixMs)).
	Samples int `json:"samples"`
	// TimesUnixMs stamps each sample, oldest first.
	TimesUnixMs []int64 `json:"times_unix_ms"`
	// Series maps exposition series names to raw (cumulative for counters)
	// values per sample, oldest first.
	Series map[string][]float64 `json:"series"`
	// Histograms maps histogram series names to their window reductions.
	Histograms map[string]HistSummary `json:"histograms"`
}

// HistSummary is one histogram reduced over the summary window.
type HistSummary struct {
	// Count is the cumulative observation count per sample, oldest first.
	Count []float64 `json:"count"`
	// RatePerS is observations per second over the window (0 with fewer
	// than two samples).
	RatePerS float64 `json:"rate_per_s"`
	// P50/P95/P99 are window quantiles in the histogram's native units,
	// null when the window holds no observations.
	P50 *float64 `json:"p50"`
	P95 *float64 `json:"p95"`
	P99 *float64 `json:"p99"`
}

// Summary decodes the last m samples (0 = whole ring) into the JSON window
// shape. Series and histogram names come out in sorted order via the map
// marshalling, so equal rings produce byte-equal JSON.
func (ts *TimeSeries) Summary(m int) *TimeseriesSummary {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	if m <= 0 || m > ts.n {
		m = ts.n
	}
	out := &TimeseriesSummary{
		IntervalMs: ts.interval.Milliseconds(),
		Samples:    m,
		Series:     make(map[string][]float64, len(ts.scalars)),
		Histograms: make(map[string]HistSummary, len(ts.hists)),
	}
	out.TimesUnixMs = make([]int64, m)
	for i := 0; i < m; i++ {
		out.TimesUnixMs[i] = ts.times[ts.slotAt(ts.n-m+i)]
	}
	for _, s := range ts.scalars {
		out.Series[s.name] = ts.decodeLocked(s.col, m)
	}
	secs := ts.windowSecondsLocked(m)
	for _, g := range ts.hists {
		hs := HistSummary{Count: ts.decodeLocked(g.count, m)}
		if secs > 0 {
			hs.RatePerS = ts.windowDeltaLocked(g.count, m) / secs
		}
		counts := make([]float64, len(g.buckets))
		for i, c := range g.buckets {
			counts[i] = ts.windowDeltaLocked(c, m)
		}
		for _, pq := range []struct {
			p   float64
			dst **float64
		}{{0.50, &hs.P50}, {0.95, &hs.P95}, {0.99, &hs.P99}} {
			if v, ok := quantileFromBuckets(g.bounds, counts, pq.p); ok {
				v := v
				*pq.dst = &v
			}
		}
		out.Histograms[g.name] = hs
	}
	return out
}

// SeriesNames lists the scalar series the store tracks, sorted.
func (ts *TimeSeries) SeriesNames() []string {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	names := make([]string, 0, len(ts.scalars))
	for _, s := range ts.scalars {
		names = append(names, s.name)
	}
	sort.Strings(names)
	return names
}
